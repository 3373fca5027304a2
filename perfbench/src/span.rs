//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark itself, around its own calls into
//! each layer's public functions; the layer is the prefix of the span name
//! (`simnet.run` belongs to `simnet`). Spans nest strictly (a stack), so a
//! span's *self time* is its duration minus its direct children's, and the
//! self times of all spans add up to the duration of the top-level spans
//! exactly. Self time of `bench.*` spans is the benchmark's own bookkeeping:
//! the unattributed remainder.
//!
//! Self times are accumulated as spans close, so they cover every span even
//! when a long run records more spans than are kept for the dump
//! ([`MAX_KEPT`]).
//!
//! *Stories* are request- or write-lifetime spans (`serve.read`,
//! `serve.write`) that overlap the layer spans of other requests; they carry
//! the request or write id and are written out with the rest, but take no
//! part in self-time accounting.

use std::io::Write;
use wcc_types::WallClock;

/// Spans kept in memory for the dump; later spans still count toward the
/// self times.
pub const MAX_KEPT: usize = 100_000;

const NO_PARENT: u32 = u32::MAX;

/// One kept span. Times are microseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: u64,
    /// End, µs.
    pub end_us: u64,
    parent: u32,
    /// Request, write, window or iteration id, or 0.
    pub id: u64,
    story: bool,
}

/// The layer of a span name: the part before the first `.`.
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

struct Open {
    name: &'static str,
    kept: u32,
    start_us: u64,
    children_us: u64,
}

/// Handle to an open span; `None` when tracing is off.
pub type Token = Option<usize>;

/// The recorder. A disabled tracer reads no clock and stores nothing.
pub struct Tracer {
    clock: Option<WallClock>,
    spans: Vec<Span>,
    open: Vec<Open>,
    by_layer: Vec<(&'static str, u64)>,
    unattributed_us: u64,
    top_level_us: u64,
    recorded: u64,
}

/// Where a traced run's wall time went.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Duration of the top-level spans, µs.
    pub wall_us: u64,
    /// Self time per layer, µs (the benchmark's own time excluded).
    pub by_layer: Vec<(&'static str, u64)>,
    /// Self time of `bench.*` spans, µs.
    pub unattributed_us: u64,
}

impl Attribution {
    /// Self time of `layer` in µs (0 when the layer recorded nothing).
    pub fn self_us(&self, layer: &str) -> u64 {
        self.by_layer
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, us)| *us)
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            clock: None,
            spans: Vec::new(),
            open: Vec::new(),
            by_layer: Vec::new(),
            unattributed_us: 0,
            top_level_us: 0,
            recorded: 0,
        }
    }

    /// A recording tracer; its clock starts now.
    pub fn on() -> Tracer {
        Tracer {
            clock: Some(WallClock::start()),
            spans: Vec::with_capacity(1 << 16),
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.clock.is_some()
    }

    /// Microseconds since the tracer started (0 when off).
    pub fn now_us(&self) -> u64 {
        self.clock.map_or(0, |c| c.elapsed().as_micros())
    }

    fn parent_index(&self) -> u32 {
        self.open
            .iter()
            .rev()
            .map(|o| o.kept)
            .find(|&k| k != NO_PARENT)
            .unwrap_or(NO_PARENT)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Token {
        let clock = self.clock?;
        let start_us = clock.elapsed().as_micros();
        let kept = if self.spans.len() < MAX_KEPT {
            let parent = self.parent_index();
            self.spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                id,
                story: false,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.recorded += 1;
        self.open.push(Open {
            name,
            kept,
            start_us,
            children_us: 0,
        });
        Some(self.open.len())
    }

    /// Closes the innermost open span, which must be `token`.
    pub fn close(&mut self, token: Token) {
        let (Some(depth), Some(clock)) = (token, self.clock) else {
            return;
        };
        assert_eq!(depth, self.open.len(), "spans must close innermost first");
        let span = self.open.pop().expect("depth checked above");
        let end_us = clock.elapsed().as_micros();
        let duration = end_us.saturating_sub(span.start_us);
        let own = duration.saturating_sub(span.children_us);
        let layer = layer_of(span.name);
        if layer == "bench" {
            self.unattributed_us += own;
        } else {
            match self.by_layer.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, us)) => *us += own,
                None => self.by_layer.push((layer, own)),
            }
        }
        match self.open.last_mut() {
            Some(parent) => parent.children_us += duration,
            None => self.top_level_us += duration,
        }
        if span.kept != NO_PARENT {
            self.spans[span.kept as usize].end_us = end_us;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let t = self.open(name, id);
        let out = f();
        self.close(t);
        out
    }

    /// Records a request/write lifetime story (excluded from self time).
    pub fn story(&mut self, name: &'static str, id: u64, start_us: u64, end_us: u64) {
        if self.enabled() && self.spans.len() < MAX_KEPT {
            let parent = self.open.first().map_or(NO_PARENT, |o| o.kept);
            self.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
                id,
                story: true,
            });
        }
    }

    /// Kept spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Layer spans recorded, kept or not.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Self-time attribution of every closed span.
    pub fn attribution(&self) -> Attribution {
        let mut by_layer = self.by_layer.clone();
        by_layer.sort_unstable();
        Attribution {
            wall_us: self.top_level_us,
            by_layer,
            unattributed_us: self.unattributed_us,
        }
    }

    /// Writes every kept span as one JSON object per line:
    /// `{"name","start_us","end_us","parent","id","story"}`; `parent` is
    /// the line index of the parent span, or -1.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"id\":{},\"story\":{}}}",
                s.name, s.start_us, s.end_us, parent, s.id, s.story
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_wall() {
        let mut t = Tracer::on();
        let root = t.open("bench.run", 0);
        t.span("traces.generate", 0, || {
            std::hint::black_box((0..20_000u64).sum::<u64>())
        });
        let run = t.open("simnet.run", 0);
        t.span("simnet.window", 0, || {
            std::hint::black_box((0..20_000u64).product::<u64>())
        });
        t.close(run);
        t.story("serve.read", 9, 0, 5);
        t.close(root);
        let a = t.attribution();
        let layers: u64 = a.by_layer.iter().map(|(_, us)| us).sum();
        assert_eq!(layers + a.unattributed_us, a.wall_us);
        assert_eq!(a.by_layer.len(), 2);
        assert_eq!(t.spans().len(), 5);
        assert_eq!(t.recorded(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let root = t.open("bench.run", 0);
        t.close(root);
        assert!(t.spans().is_empty());
        assert_eq!(t.attribution().wall_us, 0);
    }
}
