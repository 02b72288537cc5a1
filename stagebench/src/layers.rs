//! Per-layer metrics of a traced run: the probed stages, the scheduler,
//! set-up, and the cost of tracing itself.

use crate::probe::{LayerRecord, Span};
use crate::stats::{median, percentile};
use crate::workload::{Round, SetupTimes, POOL_FRAMES};

/// A metric as the result line carries it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Probed stages in graph order. A stage the workload's graph lacks (the
/// binner outside `xd1_binned`) reports zeros.
pub const STAGES: [&str; 4] = ["link", "binner", "accumulate", "deconvolve"];
/// Stages that process 2-D cells and carry an FPGA cycle model.
const CELL_STAGES: [&str; 3] = ["binner", "accumulate", "deconvolve"];

pub struct LayerReport {
    pub metrics: Vec<Metric>,
    /// The stage with the highest `busy_share`.
    pub bottleneck: &'static str,
    pub bottleneck_share: f64,
}

/// One stage's records across the traced rounds.
struct StageView<'a> {
    records: Vec<&'a LayerRecord>,
    spans: Vec<&'a Span>,
}

impl<'a> StageView<'a> {
    fn new(rounds: &[&'a Round], name: &str) -> Self {
        let records: Vec<&LayerRecord> = rounds
            .iter()
            .flat_map(|r| r.records.iter())
            .filter(|rec| rec.name == name)
            .collect();
        let spans = records.iter().flat_map(|rec| rec.spans.iter()).collect();
        Self { records, spans }
    }

    fn sum(&self, f: impl Fn(&LayerRecord) -> u64) -> u64 {
        self.records.iter().map(|r| f(r)).sum()
    }

    fn busy_s(&self) -> f64 {
        self.spans.iter().fold(0.0, |acc, s| acc + s.micros()) / 1e6
    }

    fn call_us(&self, q: f64, filter: impl Fn(&Span) -> bool) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| filter(s))
            .map(|s| s.micros())
            .collect();
        percentile(&v, q)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn per_layer(
    traced: &[&Round],
    setups: &[SetupTimes],
    overhead_pct: f64,
    error_rate: f64,
) -> LayerReport {
    let wall = traced.iter().fold(0.0, |acc, r| acc + r.wall_s);
    let blocks = traced.iter().map(|r| r.blocks_expected).sum::<u64>() as f64;
    let frames = traced.iter().map(|r| r.frames).sum::<u64>() as f64;
    let cycles = |f: fn(&htims_core::pipeline::PipelineReport) -> u64| {
        traced
            .iter()
            .filter_map(|r| r.report.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };

    let mut metrics = Vec::new();
    let (mut bottleneck, mut bottleneck_share) = (STAGES[0], -1.0);
    for name in STAGES {
        let v = StageView::new(traced, name);
        let busy = v.busy_s();
        let share = ratio(busy, wall);
        if share > bottleneck_share {
            (bottleneck, bottleneck_share) = (name, share);
        }
        let bytes = v.sum(|r| r.bytes_in + r.bytes_out) as f64;
        metrics.push(metric(format!("{name}.busy_share"), share, "ratio"));
        metrics.push(metric(
            format!("{name}.call_us_p50"),
            v.call_us(0.5, |_| true),
            "us",
        ));
        metrics.push(metric(
            format!("{name}.call_us_p90"),
            v.call_us(0.9, |_| true),
            "us",
        ));
        metrics.push(metric(
            format!("{name}.mb_per_block"),
            ratio(bytes, blocks) / 1e6,
            "MB",
        ));
        if CELL_STAGES.contains(&name) {
            let cells = v.sum(|r| r.cells_in) as f64;
            metrics.push(metric(
                format!("{name}.mcells_per_s"),
                ratio(cells, busy) / 1e6,
                "Mcells/s",
            ));
            let per_item = match name {
                "binner" => ratio(cycles(|r| r.binner_cycles), frames),
                "accumulate" => ratio(cycles(|r| r.capture_cycles), frames),
                _ => ratio(cycles(|r| r.deconv_cycles), blocks),
            };
            metrics.push(metric(
                format!("{name}.model_cycles_per_item"),
                per_item,
                "cycles",
            ));
        }
        match name {
            "accumulate" => {
                metrics.push(metric(
                    "accumulate.fold_us_p50",
                    v.call_us(0.5, |s| !s.emitted_block),
                    "us",
                ));
                metrics.push(metric(
                    "accumulate.drain_us_p50",
                    v.call_us(0.5, |s| s.emitted_block),
                    "us",
                ));
                let occ: Vec<f64> = v
                    .records
                    .iter()
                    .flat_map(|r| r.occupancy.iter().copied())
                    .collect();
                metrics.push(metric(
                    "accumulate.block_occupancy",
                    ratio(occ.iter().fold(0.0, |a, b| a + b), occ.len() as f64),
                    "ratio",
                ));
            }
            "deconvolve" => {
                let share = ratio(
                    v.sum(|r| r.sparse_blocks_in) as f64,
                    v.sum(|r| r.blocks_in) as f64,
                );
                metrics.push(metric("deconvolve.sparse_share", share, "ratio"));
            }
            _ => {}
        }
    }

    let sched = |f: fn(&htims_core::pipeline::SchedStatsSnapshot) -> u64| {
        let total: u64 = traced.iter().filter_map(|r| r.sched.as_ref()).map(f).sum();
        ratio(total as f64, blocks)
    };
    metrics.push(metric(
        "sched.tasks_per_block",
        sched(|s| s.executed),
        "count",
    ));
    metrics.push(metric(
        "sched.steals_per_block",
        sched(|s| s.steals),
        "count",
    ));
    metrics.push(metric("sched.parks_per_block", sched(|s| s.parks), "count"));

    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    metrics.push(metric("setup.acquire_s", setup(|t| t.acquire_s), "s"));
    metrics.push(metric(
        "setup.frame_gen_ms_per_frame",
        setup(|t| t.frame_gen_s) * 1e3 / POOL_FRAMES as f64,
        "ms",
    ));
    metrics.push(metric("setup.reference_s", setup(|t| t.reference_s), "s"));
    metrics.push(metric("trace.overhead_pct", overhead_pct, "%"));
    metrics.push(metric("check.error_rate", error_rate, "ratio"));

    LayerReport {
        metrics,
        bottleneck,
        bottleneck_share,
    }
}
