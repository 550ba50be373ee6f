//! Transformation specifications and options.

use std::time::Duration;

/// Synchronization strategy (§3.4), and with it the phase order:
/// [`SyncStrategy::Lazy`] synchronizes first, the other three last.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SyncStrategy {
    /// Block new transactions on the involved tables, let active ones
    /// finish, then run a final propagation. Simple, violates the
    /// non-blocking requirement — implemented as the baseline strategy.
    BlockingCommit,
    /// Latch the source tables for one final (very short) propagation,
    /// transfer locks to the transformed tables, force transactions
    /// that were active on the source tables to abort, and let log
    /// propagation wash their compensations out in the background.
    /// The paper's prototype measures this one (<1 ms); the default.
    #[default]
    NonBlockingAbort,
    /// Like non-blocking abort, but old transactions are allowed to run
    /// to completion on the (now frozen-for-others) source tables, with
    /// every subsequent operation mirrored as an origin-tagged lock on
    /// the transformed tables ("soft transformation").
    NonBlockingCommit,
    /// SLSM-style lazy migration (DESIGN.md §15): synchronize — an
    /// NBA-style cutover — right after preparation, then transform
    /// records on first touch while the copy phase backfills the rest.
    Lazy,
}

/// How long each wait on other transactions lasts when
/// [`TransformOptions::deadline`] is `None`: blocking commit's wait for
/// the source lock holders (§3.4) and the post-sync drain of the
/// grandfathered transactions.
pub const UNBOUNDED_WAIT_LIMIT: Duration = Duration::from_secs(60);

/// Knobs shared by all transformations.
#[derive(Clone, Debug)]
pub struct TransformOptions {
    /// Fraction of wall-clock time the transformation may consume
    /// (0 < p ≤ 1). After processing a batch for `d` seconds the
    /// propagator sleeps `d·(1−p)/p` — the "priority" axis of the
    /// paper's Figure 4(d).
    pub priority: f64,
    /// Log records (lazy: residual keys) per throttle batch.
    pub batch_size: usize,
    /// Backlog (remaining log records) below which synchronization may
    /// start; the §3.3 analysis threshold.
    pub sync_threshold: usize,
    /// Rows copied per fuzzy-scan chunk during initial population.
    pub population_chunk: usize,
    /// Synchronization strategy.
    pub strategy: SyncStrategy,
    /// Split-with-consistency-checking: run the checker after every
    /// N propagation batches.
    pub cc_interval: usize,
    /// Safety valve: overall wall-clock budget for the transformation,
    /// counted from `prepare`. Every phase stops at that one deadline
    /// with `TransformationAborted`: the copy, the propagation,
    /// blocking commit's wait for the source lock holders and the
    /// post-sync drain. `None` leaves the copy and the propagation
    /// unbounded, but each wait on other transactions still gives up
    /// [`UNBOUNDED_WAIT_LIMIT`] after it starts.
    pub deadline: Option<Duration>,
    /// Keep the (frozen) source tables in the catalog instead of
    /// dropping them at the very end. Tests and verification harnesses
    /// use this to compare the transformed tables against the final
    /// source state.
    pub retain_sources: bool,
}

impl Default for TransformOptions {
    fn default() -> Self {
        TransformOptions {
            priority: 1.0,
            batch_size: 256,
            sync_threshold: 500,
            population_chunk: 1_024,
            strategy: SyncStrategy::default(),
            cc_interval: 16,
            deadline: None,
            retain_sources: false,
        }
    }
}

impl TransformOptions {
    /// Set the priority (clamped to (0, 1]).
    #[must_use]
    pub fn priority(mut self, p: f64) -> Self {
        self.priority = p.clamp(1e-4, 1.0);
        self
    }

    /// Set the synchronization strategy.
    #[must_use]
    pub fn strategy(mut self, s: SyncStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Set the wall-clock budget.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Keep the frozen source tables after completion (verification).
    #[must_use]
    pub fn retain_sources(mut self) -> Self {
        self.retain_sources = true;
        self
    }
}

/// Specification of a full-outer-join transformation: R ⟗ S → T.
///
/// The transformed table T contains every column of R followed by every
/// column of S except S's join column (the join attribute appears once,
/// as in the paper's Figure 1). Name clashes on non-join columns are
/// resolved by suffixing the S column with `_s`. T's storage key is
/// R's primary key extended with the join attribute (one-to-many) or
/// with S's primary key (many-to-many), which keeps NULL-extended rows
/// uniquely addressable.
#[derive(Clone, Debug)]
pub struct FojSpec {
    /// Source table R.
    pub r_table: String,
    /// Source table S. In one-to-many mode the join attribute must be
    /// unique in S (it is a candidate key, §4).
    pub s_table: String,
    /// Name of the transformed table T (created by preparation).
    pub target: String,
    /// Join column name in R.
    pub r_join_col: String,
    /// Join column name in S.
    pub s_join_col: String,
    /// Whether the relation is many-to-many (§4.2). Changes T's key to
    /// R-pk ⧺ S-pk and switches to the generalized rules. S's primary
    /// key must then be more than the join column: an S keyed by it
    /// makes the join one-to-many, and preparation rejects it.
    pub many_to_many: bool,
}

impl FojSpec {
    /// One-to-many FOJ specification.
    pub fn new(
        r_table: &str,
        s_table: &str,
        target: &str,
        r_join_col: &str,
        s_join_col: &str,
    ) -> FojSpec {
        FojSpec {
            r_table: r_table.to_owned(),
            s_table: s_table.to_owned(),
            target: target.to_owned(),
            r_join_col: r_join_col.to_owned(),
            s_join_col: s_join_col.to_owned(),
            many_to_many: false,
        }
    }

    /// Switch to many-to-many mode.
    #[must_use]
    pub fn many_to_many(mut self) -> Self {
        self.many_to_many = true;
        self
    }
}

/// How the split materializes its R target (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitMode {
    /// Create R as a separate table and populate it (the variant the
    /// paper describes in full).
    SeparateR,
    /// The space-saving alternative: only S (plus a small bookkeeping
    /// table P holding per-record LSN and split value) is materialized;
    /// at synchronization the source T is projected down to R's columns
    /// and renamed. Trades a longer synchronization latch for ~half the
    /// space.
    RenameInPlace,
}

/// Specification of a vertical split transformation: T → R, S.
#[derive(Clone, Debug)]
pub struct SplitSpec {
    /// Source table T.
    pub source: String,
    /// Name of the R target (keeps T's primary key).
    pub r_target: String,
    /// Name of the S target (keyed by the split attribute).
    pub s_target: String,
    /// Columns of T that go to R. Must include T's primary key and the
    /// split column.
    pub r_cols: Vec<String>,
    /// The split attribute (functionally determines `s_dep_cols`). Goes
    /// to both targets; primary key of S.
    pub split_col: String,
    /// Columns of T functionally dependent on the split attribute; they
    /// move to S.
    pub s_dep_cols: Vec<String>,
    /// Whether the DBMS guarantees the functional dependency (§5.2) or
    /// the consistency checker must verify it (§5.3).
    pub check_consistency: bool,
    /// R materialization mode.
    pub mode: SplitMode,
}

impl SplitSpec {
    /// Split specification with consistency guaranteed by the DBMS.
    pub fn new(
        source: &str,
        r_target: &str,
        s_target: &str,
        r_cols: &[&str],
        split_col: &str,
        s_dep_cols: &[&str],
    ) -> SplitSpec {
        SplitSpec {
            source: source.to_owned(),
            r_target: r_target.to_owned(),
            s_target: s_target.to_owned(),
            r_cols: r_cols.iter().map(|s| (*s).to_owned()).collect(),
            split_col: split_col.to_owned(),
            s_dep_cols: s_dep_cols.iter().map(|s| (*s).to_owned()).collect(),
            check_consistency: false,
            mode: SplitMode::SeparateR,
        }
    }

    /// Enable §5.3 consistency checking.
    #[must_use]
    pub fn with_consistency_check(mut self) -> Self {
        self.check_consistency = true;
        self
    }

    /// Use the rename-in-place variant (§5.2 alternative).
    #[must_use]
    pub fn rename_in_place(mut self) -> Self {
        self.mode = SplitMode::RenameInPlace;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = TransformOptions::default();
        assert_eq!(o.priority, 1.0);
        assert_eq!(o.strategy, SyncStrategy::NonBlockingAbort);
        assert!(o.sync_threshold > 0);
    }

    #[test]
    fn priority_is_clamped() {
        assert_eq!(TransformOptions::default().priority(2.0).priority, 1.0);
        assert!(TransformOptions::default().priority(0.0).priority > 0.0);
        assert_eq!(TransformOptions::default().priority(0.25).priority, 0.25);
    }

    #[test]
    fn builders_compose() {
        let spec = FojSpec::new("r", "s", "t", "c", "c").many_to_many();
        assert!(spec.many_to_many);
        let split = SplitSpec::new("t", "r", "s", &["a", "c"], "c", &["d"])
            .with_consistency_check()
            .rename_in_place();
        assert!(split.check_consistency);
        assert_eq!(split.mode, SplitMode::RenameInPlace);
    }
}
