//! Per-request layer spans and the table they add up to.
//!
//! Every span is timed from the benchmark, around a call into one layer's
//! public functions. A request's end-to-end time (scheduled send to rendered
//! reply) minus the sum of its spans is its gap: time no named layer owns.
//! The table reports each layer as its mean per request over *all* traced
//! requests, so the rows plus the gap add up to the mean end-to-end time.

use std::time::Duration;

/// Layer names, in the order a request meets them.
pub const LAYERS: [&str; 16] = [
    "gen.lag",
    "gen.barrier",
    "wire.parse",
    "daemon.admit",
    "daemon.queue_wait",
    "ledger.grant",
    "registry.note",
    "labels.derive",
    "counts",
    "stage1",
    "stage2",
    "histogram",
    "engine.other",
    "response.build",
    "append",
    "wire.render",
];
pub const LAG: usize = 0;
pub const BARRIER: usize = 1;
pub const PARSE: usize = 2;
pub const ADMIT: usize = 3;
pub const WAIT: usize = 4;
pub const GRANT: usize = 5;
pub const NOTE: usize = 6;
pub const DERIVE: usize = 7;
pub const COUNTS: usize = 8;
pub const STAGE1: usize = 9;
pub const STAGE2: usize = 10;
pub const HIST: usize = 11;
pub const ENGINE_OTHER: usize = 12;
pub const RESPOND: usize = 13;
pub const APPEND: usize = 14;
pub const RENDER: usize = 15;

/// One request's spans (milliseconds; zero for layers it never entered)
/// and the counts recorded at the same boundaries.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    pub ms: [f64; LAYERS.len()],
    /// `build-counts` outcome (explains).
    pub cache_hit: Option<bool>,
    /// Stage-2 leaves enumerated.
    pub leaves: f64,
    /// Bytes a counts build streamed (misses): rows × arity × 4.
    pub build_bytes: f64,
    /// Clusterings an append carried forward.
    pub refreshed: Option<u64>,
}

impl Spans {
    pub fn set(&mut self, layer: usize, elapsed: Duration) {
        self.ms[layer] = elapsed.as_secs_f64() * 1e3;
    }

    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }
}

/// One traced request: its end-to-end time and its spans.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    pub e2e_ms: f64,
    pub spans: Spans,
}

/// Mean milliseconds per request, per layer, plus the unexplained gap.
#[derive(Debug, Clone)]
pub struct LayerTable {
    pub layers: Vec<(&'static str, f64)>,
    pub e2e_ms: f64,
    pub gap_ms: f64,
    pub requests: usize,
}

pub fn layer_table(traces: &[RequestTrace]) -> LayerTable {
    let n = traces.len().max(1) as f64;
    let layers = LAYERS
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, traces.iter().map(|t| t.spans.ms[i]).sum::<f64>() / n))
        .collect();
    let e2e_ms = traces.iter().map(|t| t.e2e_ms).sum::<f64>() / n;
    let gap_ms = traces
        .iter()
        .map(|t| t.e2e_ms - t.spans.total_ms())
        .sum::<f64>()
        / n;
    LayerTable {
        layers,
        e2e_ms,
        gap_ms,
        requests: traces.len(),
    }
}

impl LayerTable {
    pub fn render(&self) -> String {
        let share = |ms: f64| {
            if self.e2e_ms > 0.0 {
                100.0 * ms / self.e2e_ms
            } else {
                0.0
            }
        };
        let mut out = format!(
            "layer                   mean ms/request    share   ({} traced requests)\n",
            self.requests
        );
        for (name, ms) in &self.layers {
            out.push_str(&format!("{name:<22} {ms:>14.4} {:>7.1}%\n", share(*ms)));
        }
        out.push_str(&format!(
            "{:<22} {:>14.4} {:>7.1}%\n",
            "gap_ms",
            self.gap_ms,
            share(self.gap_ms)
        ));
        out.push_str(&format!("{:<22} {:>14.4}\n", "end-to-end", self.e2e_ms));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_plus_gap_sum_to_end_to_end() {
        // Synthetic trace: an explain, an append, and a request whose spans
        // leave a 0.5 ms gap.
        let mut explain = Spans::default();
        for (layer, ms) in [
            (LAG, 0.2),
            (GRANT, 0.4),
            (DERIVE, 3.0),
            (COUNTS, 3.4),
            (RENDER, 0.1),
        ] {
            explain.ms[layer] = ms;
        }
        let mut append = Spans::default();
        append.ms[APPEND] = 150.0;
        append.ms[WAIT] = 2.0;
        let traces = vec![
            RequestTrace {
                e2e_ms: 7.1,
                spans: explain.clone(),
            },
            RequestTrace {
                e2e_ms: 152.0,
                spans: append,
            },
            RequestTrace {
                e2e_ms: 7.6,
                spans: explain,
            },
        ];
        let table = layer_table(&traces);
        let layers: f64 = table.layers.iter().map(|(_, ms)| ms).sum();
        assert!((layers + table.gap_ms - table.e2e_ms).abs() < 1e-9);
        assert!((table.gap_ms - 0.5 / 3.0).abs() < 1e-9);
        let derive = table.layers[DERIVE].1;
        assert!(
            (derive - 2.0).abs() < 1e-12,
            "3 ms on two of three requests"
        );
        assert!(table.render().contains("labels.derive"));
    }
}
