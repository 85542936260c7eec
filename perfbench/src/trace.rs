//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the benchmark's calls into each layer (and
//! around `QueryHandle::step` by the timing wrapper in [`crate::probe`]).
//! Every span is opened and closed on the benchmark's driver thread, so one
//! stack of open spans gives each new span its parent. Nothing is written
//! until the run ends; an untraced run holds a [`Trace::off`] handle and
//! records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `engine.step`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Session, query or cell id the span belongs to.
    pub id: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

/// A cheap, cloneable tracing handle; [`Trace::off`] records nothing.
#[derive(Clone, Default)]
pub struct Trace(Option<Arc<Tracer>>);

/// Closes its span when dropped, so a span also closes when the traced call
/// unwinds.
struct Guard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
        // A poisoned lock only means another span's holder panicked; the
        // span list itself is always consistent, so recover it.
        let mut state = match self.tracer.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.spans[self.index].end_ns = end_ns;
        while let Some(top) = state.open.pop() {
            if top == self.index {
                break;
            }
        }
    }
}

impl Trace {
    /// A handle that records nothing.
    pub fn off() -> Trace {
        Trace(None)
    }

    /// A handle recording into a fresh, empty tracer.
    pub fn on() -> Trace {
        Trace(Some(Arc::new(Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })))
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let Some(tracer) = &self.0 else {
            return f();
        };
        let index = {
            let mut state = tracer.state.lock().expect("span list lock");
            let index = state.spans.len();
            let parent = state.open.last().copied();
            state.spans.push(Span {
                name,
                start_ns: tracer.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                id,
            });
            state.open.push(index);
            index
        };
        let _guard = Guard { tracer, index };
        f()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.0 {
            Some(tracer) => tracer.state.lock().expect("span list lock").spans.clone(),
            None => Vec::new(),
        }
    }
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// it that its child spans cover, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = span.duration_ns().saturating_sub(children);
        *by_layer.entry(span.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    by_layer
}

/// Renders spans as JSON lines: name, start, end, parent and id.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let trace = Trace::on();
        trace.span("fleet.run", 1, || {
            trace.span("engine.step", 2, || std::hint::black_box(0));
        });
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = self_time_by_layer(&spans);
        assert!(by_layer.contains_key("fleet") && by_layer.contains_key("engine"));
    }

    #[test]
    fn off_records_nothing() {
        let trace = Trace::off();
        assert_eq!(trace.span("core.interaction", 0, || 7), 7);
        assert!(trace.spans().is_empty());
    }
}
