//! A span recorder for one replay thread.
//!
//! A span has a name, a start, an end and the span open around it (its
//! parent). The layer is the name up to the first `.`, so `ddl.parse`
//! belongs to `ddl`. A span's self time is its duration minus the time its
//! children cover; a layer's self time is the sum over its spans, and the
//! self times of all spans add up to the root span exactly.
//!
//! Recording is off unless [`set_enabled`] turned it on: [`span`] then only
//! reads a flag, so the untraced replay runs the same code at the same cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Start or stop recording spans on this thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span; it closes when the returned guard is dropped.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Guard(None);
        }
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        let id = r.spans.len() - 1;
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let now = r.origin.elapsed().as_nanos() as u64;
                r.spans[id].end_ns = now;
                r.open.pop();
            });
        }
    }
}

/// Time `f` under a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Per-name totals and per-layer self times of everything recorded.
pub struct Summary {
    /// name -> (calls, inclusive ms, self ms)
    pub by_name: BTreeMap<&'static str, (u64, f64, f64)>,
    /// layer -> self ms
    pub layer_self_ms: BTreeMap<String, f64>,
    /// Durations of every span named `name`, in ms, in record order.
    durations: BTreeMap<&'static str, Vec<f64>>,
}

impl Summary {
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Summarize the recorded spans.
pub fn summary() -> Summary {
    REC.with(|r| {
        let r = r.borrow();
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        let mut layer_self_ms: BTreeMap<String, f64> = BTreeMap::new();
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in r.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i]);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += ms(dur);
            e.2 += ms(own);
            *layer_self_ms.entry(layer_of(s.name).to_string()).or_default() += ms(own);
            durations.entry(s.name).or_default().push(ms(dur));
        }
        Summary { by_name, layer_self_ms, durations }
    })
}
