//! # morph-orchestrator — declarative migrations, orchestrated
//!
//! The front door to schema changes: instead of hand-driving the
//! §3 pipeline (`morph-core`), clients describe *what* should change —
//! fluently via [`Migration`] builders or textually in a small
//! `ALTER TABLE` dialect — and the [`Orchestrator`] drives the rest as
//! an explicit, crash-recoverable state machine:
//!
//! ```text
//! Planned → Preparing → Copying → Propagating → Syncing → CutOver
//!                └──────────┴──────────┴──────────┴→ Aborted
//! lazy: Planned → Preparing → Syncing → Copying → CutOver
//! ```
//!
//! Each transition is persisted through the WAL
//! (`LogRecord::MigrationState`) before the next phase's work begins,
//! so a crashed orchestrator can rediscover in-flight jobs at recovery
//! and restart them from preparation — the only sound policy given
//! that target writes bypass the log (paper §3.5). Running jobs expose
//! lock-free progress counters, an ETA, pause/resume, and
//! abort-with-cleanup through [`MigrationHandle`]; concurrent
//! migrations over disjoint table sets proceed in parallel while
//! overlapping ones are rejected up front via the engine's
//! migration registry.
//!
//! Grammar of the text dialect (one statement per stage, `;`-separated):
//!
//! ```text
//! ALTER TABLE src SPLIT INTO r (cols...) AND s (split_col -> dep_cols...)
//!     [IN PLACE] [CHECK CONSISTENCY]
//! ALTER TABLE r JOIN s INTO t ON r.col = s.col [MANY TO MANY]
//! ALTER TABLE r UNION s INTO t
//! ```

pub mod orchestrator;
pub mod parser;
pub mod sharded;
pub mod spec;

pub use orchestrator::{MigrationHandle, Orchestrator, RecoveredMigration};
pub use parser::parse;
pub use sharded::{start_lazy_sharded, submit_sharded, ShardedLazyMigration, ShardedMigration};
pub use spec::{Migration, MigrationBuilder, MigrationSpec};
