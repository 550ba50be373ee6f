//! Client-side spans. The benchmark's own client wraps every call it
//! makes into the engine (or the router) in a span; spans of one
//! transaction share a trace id (the transaction's serial) and name the
//! transaction span as their parent. Each thread appends to its own
//! buffer and the buffers are written out once, when the run ends.
//!
//! Spans inside the program do not exist yet (ROADMAP item 2), so what
//! a layer costs *below* an engine call comes from the direct probes in
//! `probes.rs`, and an engine call's self time is an estimate: its span
//! minus the probe cost of the layer calls it is known to make.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    Txn,
    Begin,
    Update,
    Read,
    SnapshotRead,
    Commit,
    Abort,
    RouterRead,
    RouterUpdate,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Begin => "engine.begin",
            SpanKind::Update => "engine.update",
            SpanKind::Read => "engine.read",
            SpanKind::SnapshotRead => "engine.snapshot_read",
            SpanKind::Commit => "engine.commit",
            SpanKind::Abort => "engine.abort",
            SpanKind::RouterRead => "engine.router.read",
            SpanKind::RouterUpdate => "engine.router.update",
        }
    }
}

/// "No parent": the span is the root of its trace.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    /// Index of the parent span in the same thread's buffer, or [`ROOT`].
    pub parent: u32,
    pub trace: u64,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's spans. Recording is off until [`SpanBuf::set_on`]; when
/// off every call is a branch and nothing else.
pub struct SpanBuf {
    epoch: Instant,
    pub thread: u32,
    pub spans: Vec<Span>,
    on: bool,
    open: u32,
    trace: u64,
}

impl SpanBuf {
    pub fn new(epoch: Instant, thread: u32) -> SpanBuf {
        SpanBuf {
            epoch,
            thread,
            spans: Vec::new(),
            on: false,
            open: ROOT,
            trace: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open the root span of a transaction.
    pub fn open_txn(&mut self, trace: u64) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        self.trace = trace;
        self.open = self.spans.len() as u32;
        self.spans.push(Span {
            kind: SpanKind::Txn,
            parent: ROOT,
            trace,
            start: now,
            end: now,
        });
    }

    pub fn close_txn(&mut self) {
        if self.open != ROOT {
            let now = self.ns(Instant::now());
            self.spans[self.open as usize].end = now;
            self.open = ROOT;
        }
    }

    /// Run `f` inside a child span of the open transaction.
    pub fn timed<T>(&mut self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            kind,
            parent: self.open,
            trace: self.trace,
            start: self.ns(start),
            end: self.ns(end),
        };
        self.spans.push(span);
        out
    }
}

/// Self time of a span: its duration minus what its children cover,
/// never below zero (children measured by a probe rather than nested
/// can add up to more than the parent on a noisy host).
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    (total - children.iter().sum::<f64>()).max(0.0)
}

/// Mean duration and count of the spans of `kind` that start inside one
/// of the `windows` (`[from, to)` in epoch nanoseconds).
pub fn mean_in_windows(bufs: &[&SpanBuf], kind: SpanKind, windows: &[(u64, u64)]) -> (f64, u64) {
    let (mut sum, mut n) = (0u128, 0u64);
    for s in bufs.iter().flat_map(|b| &b.spans) {
        if s.kind == kind && windows.iter().any(|(a, b)| (*a..*b).contains(&s.start)) {
            sum += s.dur() as u128;
            n += 1;
        }
    }
    (if n == 0 { 0.0 } else { sum as f64 / n as f64 }, n)
}

/// Mean self time of the transaction spans that start inside `windows`:
/// what the client itself spends per transaction (key draws, value
/// formatting, the model) outside every engine call.
pub fn mean_txn_self(bufs: &[&SpanBuf], windows: &[(u64, u64)]) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for buf in bufs {
        let mut child_sum = vec![0.0f64; buf.spans.len()];
        for s in &buf.spans {
            if s.parent != ROOT {
                child_sum[s.parent as usize] += s.dur() as f64;
            }
        }
        for (i, s) in buf.spans.iter().enumerate() {
            if s.kind == SpanKind::Txn && windows.iter().any(|(a, b)| (*a..*b).contains(&s.start)) {
                sum += self_time(s.dur() as f64, &[child_sum[i]]);
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Spans written per thread; the rest are counted in `dropped`. A
/// memory-speed workload records millions of spans in a few seconds and
/// the file is for reading, not for the numbers (those are computed
/// from the full buffers).
pub const FILE_SPANS_PER_THREAD: usize = 50_000;

pub fn write_file(path: &Path, workload: &str, bufs: &[&SpanBuf]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_spans(&mut w, workload, bufs)?;
    w.flush()
}

fn write_spans(
    w: &mut impl std::io::Write,
    workload: &str,
    bufs: &[&SpanBuf],
) -> std::io::Result<()> {
    let total: usize = bufs.iter().map(|b| b.spans.len()).sum();
    let kept: usize = bufs
        .iter()
        .map(|b| b.spans.len().min(FILE_SPANS_PER_THREAD))
        .sum();
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns since run start\",\"spans_recorded\":{total},\"spans_dropped\":{},\"spans\":[",
        total - kept
    )?;
    let mut first = true;
    for buf in bufs {
        for (i, s) in buf.spans.iter().take(FILE_SPANS_PER_THREAD).enumerate() {
            let id = |idx: u32| ((buf.thread as u64) << 32) | idx as u64;
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                id(s.parent).to_string()
            };
            writeln!(
                w,
                "{}{{\"id\":{},\"parent\":{parent},\"trace\":\"{}-{}\",\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                if first { "" } else { "," },
                id(i as u32),
                buf.thread,
                s.trace,
                s.kind.name(),
                s.start,
                s.end
            )?;
            first = false;
        }
    }
    writeln!(w, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(100.0, &[30.0, 20.0]), 50.0);
        assert_eq!(self_time(100.0, &[]), 100.0);
        assert_eq!(self_time(10.0, &[8.0, 8.0]), 0.0);
    }

    #[test]
    fn children_name_the_open_txn_and_share_its_trace() {
        let mut buf = SpanBuf::new(Instant::now(), 3);
        buf.timed(SpanKind::Begin, || ()); // recording off: nothing kept
        assert!(buf.spans.is_empty());
        buf.set_on(true);
        buf.open_txn(77);
        buf.timed(SpanKind::Begin, || ());
        buf.timed(SpanKind::Commit, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        buf.close_txn();
        buf.open_txn(78);
        buf.close_txn();
        assert_eq!(buf.spans.len(), 4);
        assert_eq!(buf.spans[0].parent, ROOT);
        assert!(buf.spans[1..3]
            .iter()
            .all(|s| s.parent == 0 && s.trace == 77));
        assert_eq!(buf.spans[3].trace, 78);
        let txn = buf.spans[0];
        assert!(txn.start <= buf.spans[1].start && buf.spans[2].end <= txn.end);

        let all = [(0, u64::MAX)];
        let (commit, n) = mean_in_windows(&[&buf], SpanKind::Commit, &all);
        assert_eq!(n, 1);
        assert!(commit >= 2e6);
        // The first txn's self time excludes the 2 ms spent in commit.
        let own = mean_txn_self(&[&buf], &[(0, buf.spans[3].start)]);
        assert!(own < txn.dur() as f64 - 2e6 + 1.0, "{own} vs {}", txn.dur());
        assert_eq!(mean_in_windows(&[&buf], SpanKind::Txn, &[(0, 0)]).1, 0);
    }

    #[test]
    fn trace_file_is_valid_json_with_parent_links() {
        let mut buf = SpanBuf::new(Instant::now(), 1);
        buf.set_on(true);
        buf.open_txn(5);
        buf.timed(SpanKind::Update, || ());
        buf.close_txn();
        let mut out = Vec::new();
        write_spans(&mut out, "w", &[&buf]).unwrap();
        let doc = crate::json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(spans[1].get("parent"), spans[0].get("id"));
        assert_eq!(
            spans[1].get("name").unwrap().as_str(),
            Some("engine.update")
        );
    }
}
