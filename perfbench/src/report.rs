//! One run's result: human-readable lines, then the JSON object the
//! benchmark contract asks for as the last line of standard output.

use crate::span::{Attribution, Tracer};
use crate::stats::LatencySummary;
use std::path::PathBuf;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value.
    pub samples: u64,
}

/// The result of one `--workload` run.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Where span dumps and window profiles go.
    pub out_dir: PathBuf,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    extra: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, out_dir: PathBuf) -> Report {
        Report {
            workload,
            out_dir,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            extra: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts operations attempted and failed, with the broken rules.
    pub fn attempt(&mut self, attempted: u64, failed: u64, problems: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.problems.extend_from_slice(problems);
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// A metric of the JSON result.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.to_string(),
            samples,
        });
    }

    /// A figure printed for people only.
    pub fn note_metric(&mut self, name: &str, value: f64, unit: &str, samples: u64) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    /// Median, p99 and the highest percentile with ten samples beyond it.
    pub fn note_latency(&mut self, what: &str, s: &LatencySummary) {
        self.note_metric(&format!("{what}_p50_us"), s.p50 as f64, "us", s.count);
        self.note_metric(&format!("{what}_p99_us"), s.p99 as f64, "us", s.count);
        if s.tail_label != "p99" {
            let tail = s.tail_label.replace('.', "_");
            self.note_metric(&format!("{what}_{tail}_us"), s.tail as f64, "us", s.count);
        }
    }

    /// A line of prose.
    pub fn note(&mut self, line: &str) {
        self.notes.push(line.to_string());
    }

    /// Per-layer self times, the unattributed remainder, the traced wall
    /// time and the tracing overhead (`traced` vs `untraced` wall time of
    /// the same work).
    pub fn attribution(&mut self, a: &Attribution, traced: f64, untraced: f64) {
        for layer in crate::SELF_TIME_LAYERS {
            self.metric(
                &format!("{layer}.self_s"),
                a.self_us(layer) as f64 / 1e6,
                "s",
                1,
            );
        }
        let listed: u64 = crate::SELF_TIME_LAYERS.iter().map(|l| a.self_us(l)).sum();
        let other: u64 = a.by_layer.iter().map(|(_, us)| us).sum::<u64>() - listed;
        self.metric(
            "trace.unattributed_s",
            (a.unattributed_us + other) as f64 / 1e6,
            "s",
            1,
        );
        self.metric("trace.wall_s", a.wall_us as f64 / 1e6, "s", 1);
        let overhead = if untraced > 0.0 {
            (traced / untraced - 1.0) * 100.0
        } else {
            0.0
        };
        self.metric("trace.overhead_pct", overhead, "%", 1);
        let mut line = format!("self time of {:.6} s traced wall:", a.wall_us as f64 / 1e6);
        for (layer, us) in &a.by_layer {
            line.push_str(&format!(" {layer} {:.6} s,", *us as f64 / 1e6));
        }
        line.push_str(&format!(
            " unattributed {:.6} s",
            a.unattributed_us as f64 / 1e6
        ));
        self.note(&line);
    }

    /// Writes the tracer's spans to `<out_dir>/<stem>.spans.jsonl`.
    pub fn write_spans(&mut self, tracer: &Tracer, stem: &str) {
        let path = self.out_dir.join(format!("{stem}.spans.jsonl"));
        let written =
            std::fs::create_dir_all(&self.out_dir).and_then(|()| tracer.write_jsonl(&path));
        match written {
            Ok(()) => self.note(&format!(
                "wrote {} of {} spans to {}",
                tracer.spans().len(),
                tracer.recorded(),
                path.display()
            )),
            Err(e) => self.note(&format!("could not write {}: {e}", path.display())),
        }
    }

    /// Writes `contents` to `<out_dir>/<name>`.
    pub fn write_file(&mut self, name: &str, contents: &str) {
        let path = self.out_dir.join(name);
        let written =
            std::fs::create_dir_all(&self.out_dir).and_then(|()| std::fs::write(&path, contents));
        match written {
            Ok(()) => self.note(&format!("wrote {}", path.display())),
            Err(e) => self.note(&format!("could not write {}: {e}", path.display())),
        }
    }

    /// Prints the report. The last line is the JSON result holding exactly
    /// the metrics named in `names`, in that order; a metric this workload
    /// does not exercise is 0.
    pub fn print(self, names: &[(&str, &str)], header: &str) {
        println!("{header}");
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  fail_frac = {fail_frac} ratio ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for p in &self.problems {
            println!("  FAILED: {p}");
        }
        for m in &self.extra {
            println!("  {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let mut json = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let m = self.metrics.iter().find(|m| m.name == *name);
            if let Some(m) = m {
                assert_eq!(m.unit, *unit, "unit of {name} differs from BENCHMARK.json");
            }
            match m {
                Some(m) => println!("  {} = {} {} (n={})", m.name, m.value, m.unit, m.samples),
                None => println!("  {name} = 0 {unit} (not on this workload's path)"),
            }
            let value = m.map_or(0.0, |m| m.value);
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for m in &self.metrics {
            if !names.iter().any(|(name, _)| *name == m.name) {
                println!("  {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
            }
        }
        for n in &self.notes {
            println!("  {n}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}
