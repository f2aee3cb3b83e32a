//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. A span's name is `<layer>.<call>`, and its layer is
//! the part before the first dot. Spans named `bench.*` are the
//! benchmark's own roots (one per traced iteration); every other span
//! is layer work. A span's self time is its duration minus the time
//! its child spans cover.
//!
//! When the recorder is off, `enter`/`exit` record nothing, so the
//! untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: offsets in nanoseconds from the recorder's
/// origin, and the index of the span that was open when it started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span, or `None` for a root.
    pub parent: Option<u32>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's layer: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<u32>);

/// Records spans while on; a no-op while off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder that starts switched off.
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off; only between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`]; spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the durations of its direct
    /// children (children never outlive their parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time summed per layer, `bench` roots included.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.layer()).or_insert(0) += self_ns;
        }
        out
    }

    /// `1 − Σ layer self time ÷ Σ root duration`: the share of the
    /// traced wall time that no layer span accounts for. Roots are the
    /// benchmark's `bench.*` spans, so their own self time is exactly
    /// the unaccounted part.
    pub fn unaccounted_share(&self) -> f64 {
        let wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        if wall == 0 {
            return 0.0;
        }
        let layers: u64 = self
            .layer_self_ns()
            .iter()
            .filter(|(layer, _)| **layer != "bench")
            .map(|(_, ns)| ns)
            .sum();
        1.0 - layers as f64 / wall as f64
    }

    /// The spans as CSV: `id,parent,name,start_ns,end_ns,self_ns`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,name,start_ns,end_ns,self_ns\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{},{self_ns}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new();
        t.span("bench.iteration", || ());
        assert!(t.spans().is_empty());
        t.set_on(true);
        let root = t.enter("bench.iteration");
        t.span("grid.simulate", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(root);
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns[0] + self_ns[1], t.spans()[0].dur_ns());
        assert!(t.unaccounted_share() < 0.5);
        assert_eq!(t.spans()[1].layer(), "grid");
    }
}
