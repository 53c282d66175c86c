//! Benchmark-side tracing: spans and counts recorded around calls into the
//! workspace's public functions, kept in memory and summarised at the end.
//!
//! A span has a name, a start and end on one monotonic clock, and the span
//! that was open when it began (its parent).  A name's *self time* is the
//! total duration of its spans minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span, times in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder plus free-form counters.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.last_closed = Some(id);
        out
    }

    /// Milliseconds of the span closed most recently.
    pub fn last_ms(&self) -> f64 {
        self.last_closed.map_or(0.0, |id| {
            let s = &self.spans[id];
            (s.end_ns - s.start_ns) as f64 / 1e6
        })
    }

    /// Adds `value` to the counter `key`.
    pub fn add(&mut self, key: impl Into<String>, value: f64) {
        *self.counts.entry(key.into()).or_default() += value;
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Nanoseconds since the origin of `instant` (0 if it precedes it).
    pub fn offset_ns(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.origin).as_nanos())
            .expect("a run lasts under 584 years")
    }

    /// Total (inclusive) milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |ms, s| ms + (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Self milliseconds per span name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: BTreeMap<&'static str, i128> = BTreeMap::new();
        for span in &self.spans {
            let d = i128::from(span.end_ns - span.start_ns);
            *self_ns.entry(span.name).or_default() += d;
            if let Some(parent) = span.parent {
                *self_ns.entry(self.spans[parent].name).or_default() -= d;
            }
        }
        self_ns
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e6))
            .collect()
    }

    /// Milliseconds of `[from_ns, to_ns]` that no top-level span covers.
    pub fn uncovered_ms(&self, from_ns: u64, to_ns: u64) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns)))
            .sum();
        (to_ns.saturating_sub(from_ns).saturating_sub(covered)) as f64 / 1e6
    }

    /// Every span as one JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 72);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Process CPU time (user + system) in seconds and peak resident set in
/// MiB.
///
/// CPU time comes from `getrusage(RUSAGE_SELF)`.  The peak is the kernel's
/// `VmHWM` for this process image: `ru_maxrss` survives `execve`, so in a
/// process spawned by a larger parent it would report the parent's peak.
#[cfg(target_os = "linux")]
pub fn process_usage() -> (f64, f64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `Rusage` mirrors the 64-bit Linux `struct rusage` layout (two
    // `timeval`s followed by fourteen `long`s) and the pointer is to a live,
    // exclusively borrowed value for the duration of the call.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    let hwm_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(f64::NAN);
    (secs(&usage.utime) + secs(&usage.stime), hwm_kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_uncovered_time_is_the_rest() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        let end = tr.now_ns();
        let self_ms = tr.self_ms();
        assert!(self_ms["inner"] >= 20.0);
        assert!(self_ms["outer"] >= 10.0 && self_ms["outer"] < tr.total_ms("outer") - 19.0);
        assert!((tr.total_ms("outer") - self_ms["outer"] - self_ms["inner"]).abs() < 1e-9);
        assert!(tr.uncovered_ms(0, end) >= 5.0);
        assert_eq!(tr.total_ms("absent"), 0.0);
        assert_eq!(tr.spans_jsonl().lines().count(), 2);
    }
}
