//! Outside-in spans: the benchmark times its own calls into each crate's
//! public functions. Spans stay in memory and are written when the run
//! ends; a span's self time is its duration minus its children's. Spans
//! are timed on the process CPU clock, as every end-to-end figure is.

use std::collections::BTreeMap;

use crate::stats::{json_num, json_str, mean, median, ms, Cpu};

/// Tag of spans that belong to no end-to-end row of the layer table.
pub const UNROWED: &str = "-";

/// One timed call.
#[derive(Clone)]
pub struct Span {
    /// The layer metric the span measures (a `per_layer` name, or a
    /// table-only layer).
    pub layer: &'static str,
    /// The end-to-end operation this call mirrors (its layer-table row).
    pub tag: &'static str,
    /// The span this call ran inside.
    pub parent: Option<usize>,
    /// Start, CPU ms since the tracer was created.
    pub start: f64,
    /// End, CPU ms since the tracer was created.
    pub end: f64,
}

/// Span recorder. When off, `time` just runs the closure.
pub struct Tracer {
    on: bool,
    t0: Cpu,
    spans: Vec<Span>,
    /// How many times each row's operation was mirrored.
    instances: BTreeMap<&'static str, u64>,
    /// Counted quantities (bytes, records) sampled at layer boundaries.
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer; `on` = false records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Cpu::now(),
            spans: Vec::new(),
            instances: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span of `layer` mirroring row `tag`.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let start = ms(self.t0.elapsed());
        let r = f();
        let end = ms(self.t0.elapsed());
        self.spans.push(Span {
            layer,
            tag,
            parent: None,
            start,
            end,
        });
        (r, Some(self.spans.len() - 1))
    }

    /// Records a span of `dur_ms` that ran inside `parent`, measured by
    /// the layer itself (e.g. the slicer's own stage timings). Placed at
    /// the parent's start; no-op without a parent.
    pub fn child(&mut self, parent: Option<usize>, layer: &'static str, dur_ms: f64) {
        let Some(p) = parent else { return };
        let (tag, start) = (self.spans[p].tag, self.spans[p].start);
        self.spans.push(Span {
            layer,
            tag,
            parent: Some(p),
            start,
            end: start + dur_ms,
        });
    }

    /// Records a span of known duration with no parent.
    pub fn record(&mut self, layer: &'static str, tag: &'static str, dur_ms: f64) {
        if self.on {
            let start = ms(self.t0.elapsed());
            self.spans.push(Span {
                layer,
                tag,
                parent: None,
                start,
                end: start + dur_ms,
            });
        }
    }

    /// Counts one mirrored instance of row `tag`.
    pub fn instance(&mut self, tag: &'static str) {
        if self.on {
            *self.instances.entry(tag).or_default() += 1;
        }
    }

    /// Samples a counted quantity.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.entry(name).or_default().push(value);
        }
    }

    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Inclusive duration of one span, ms.
    pub fn span_ms(&self, span: usize) -> f64 {
        self.spans[span].end - self.spans[span].start
    }

    /// Median inclusive duration of `layer`'s spans (NaN if none).
    pub fn layer_ms(&self, layer: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end - s.start)
            .collect();
        median(&v)
    }

    /// Mean of a counted quantity (NaN if never sampled).
    pub fn count_mean(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(f64::NAN, |v| mean(v))
    }

    /// Self time per mirrored instance of row `tag`, by layer.
    pub fn row(&self, tag: &str) -> BTreeMap<&'static str, f64> {
        let n = self.instances.get(tag).copied().unwrap_or(0).max(1) as f64;
        let own = self.self_times();
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.tag == tag {
                *out.entry(s.layer).or_default() += t / n;
            }
        }
        out
    }

    /// Spans as a JSON array (layer, tag, parent, start, end).
    pub fn spans_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[{}, {}, {}, {}, {}]",
                    json_str(s.layer),
                    json_str(s.tag),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_num(s.start),
                    json_num(s.end)
                )
            })
            .collect();
        format!("[{}]", items.join(",\n  "))
    }
}

/// One row of the layer table: an end-to-end figure, the layer self
/// times that account for it, and what is left over.
pub struct Row {
    /// The end-to-end metric the row explains.
    pub metric: &'static str,
    /// Its mean over the traced window, CPU ms.
    pub e2e_ms: f64,
    /// Layer self times per operation, CPU ms.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Row {
    /// A row for `metric` with measured mean `e2e_ms`.
    pub fn new(metric: &'static str, e2e_ms: f64) -> Row {
        Row {
            metric,
            e2e_ms,
            layers: BTreeMap::new(),
        }
    }

    /// Adds `times` × the per-instance layers of `tag`.
    pub fn add_row(&mut self, tracer: &Tracer, tag: &str, times: f64) -> &mut Row {
        for (layer, t) in tracer.row(tag) {
            *self.layers.entry(layer).or_default() += t * times;
        }
        self
    }

    /// Adds `times` × one layer's per-instance self time under `tag`.
    pub fn add_layer(
        &mut self,
        tracer: &Tracer,
        tag: &str,
        layer: &'static str,
        times: f64,
    ) -> &mut Row {
        if let Some(t) = tracer.row(tag).get(layer) {
            *self.layers.entry(layer).or_default() += t * times;
        }
        self
    }

    /// The measured figure minus every attributed layer.
    pub fn unattributed(&self) -> f64 {
        self.e2e_ms - self.layers.values().sum::<f64>()
    }

    /// The row as text.
    pub fn render(&self) -> String {
        let mut out = format!("{:<20} e2e {:>10.3} CPU ms = ", self.metric, self.e2e_ms);
        let mut parts: Vec<(&str, f64)> = self.layers.iter().map(|(k, v)| (*k, *v)).collect();
        parts.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (layer, t) in parts {
            out.push_str(&format!("{layer} {t:.3} + "));
        }
        out.push_str(&format!("unattributed {:.3}", self.unattributed()));
        out
    }

    /// The row as a JSON object.
    pub fn json(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect();
        format!(
            "{{\"metric\": {}, \"e2e_ms\": {}, \"unattributed_ms\": {}, \"layers\": {{{}}}}}",
            json_str(self.metric),
            json_num(self.e2e_ms),
            json_num(self.unattributed()),
            layers.join(", ")
        )
    }
}
