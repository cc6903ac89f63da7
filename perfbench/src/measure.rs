//! Measurement plumbing shared by every workload: order statistics, the
//! in-memory span recorder, the bit-pattern digest behind the
//! correctness checks, and the tally of attempted and failed operations.

use std::time::Instant;

/// Median of the samples (mean of the two middle values for an even
/// count); NaN when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; NaN when there are no
/// samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Mean of the samples; NaN when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// SplitMix64: the benchmark's only source of seeded randomness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive 64-bit digest of the exact bit patterns of `f32`
/// slices. Each of four lanes folds every fourth word with `(h ^ w) * P`,
/// a bijection of the lane state for a fixed word, so any single changed
/// value always changes the digest; the lanes keep the multiply chains
/// independent, which makes a 1.3 GB grid cost a fraction of a second.
pub fn digest(slices: &[&[f32]]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
    ];
    for slice in slices {
        for quad in slice.chunks(4) {
            for (lane, v) in lanes.iter_mut().zip(quad) {
                *lane = (*lane ^ u64::from(v.to_bits())).wrapping_mul(PRIME);
            }
        }
    }
    lanes.iter().fold(0u64, |acc, &l| {
        (acc ^ l).wrapping_mul(PRIME).rotate_left(29)
    })
}

/// One recorded span: a layer call timed from the benchmark's side.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `engine35.sweep`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// An open span: its start instant, plus its slot when tracing is on.
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

impl Open {
    /// The span's index, to pass as the parent of nested spans.
    pub fn id(&self) -> Option<usize> {
        self.slot
    }
}

/// In-memory span recorder. Every `open`/`close` pair measures a
/// duration; only an enabled recorder also keeps the span, so an
/// untraced run pays one clock read per boundary and nothing else.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                parent,
                start_ns: self.ns(start),
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        Open { slot, start }
    }

    /// Closes `open`, returning its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.slot {
            self.spans[i].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, parent);
        let r = f();
        (r, self.close(open))
    }

    /// Keeps a span timed elsewhere (on another thread) when tracing is on.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per span name: (calls, total seconds, self seconds), where self
    /// time is a span's duration minus the time its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(child);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur as f64 * 1e-9;
                    r.3 += own as f64 * 1e-9;
                }
                None => rows.push((s.name, 1, dur as f64 * 1e-9, own as f64 * 1e-9)),
            }
        }
        rows
    }

    /// The spans as a JSON document (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Attempted and failed operations of one run. An operation fails on an
/// `Err`, a typed rejection or failure, a wire error, or a result that is
/// not bit-identical to the scalar reference.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed iff `failure` is `Some`.
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(why);
            }
        }
    }

    /// Counts one operation whose result digest must equal `want`.
    pub fn check(&mut self, what: &str, got: Result<u64, String>, want: u64) {
        self.record(match got {
            Err(e) => Some(format!("{what}: {e}")),
            Ok(d) if d != want => Some(format!(
                "{what}: digest {d:016x} differs from the scalar reference {want:016x}"
            )),
            Ok(_) => None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_sees_every_single_value_change() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let base = digest(&[&a]);
        for i in 0..a.len() {
            let mut b = a.clone();
            b[i] = f32::from_bits(b[i].to_bits() ^ 1);
            assert_ne!(digest(&[&b]), base, "flip at {i} went unseen");
        }
        let mut z = a.clone();
        z[0] = -0.0;
        assert_ne!(digest(&[&z]), base);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.open("outer", None);
        let (_, inner) = s.time("inner", outer.id(), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = s.close(outer);
        let rows = s.self_times();
        let o = rows.iter().find(|r| r.0 == "outer").unwrap();
        assert!((o.2 - total).abs() < 1e-6);
        assert!(o.3 <= total - inner + 1e-6);
    }
}
