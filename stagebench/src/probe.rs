//! A benchmark-side wrapper around one pipeline stage.
//!
//! [`Probe`] forwards every [`Stage`] call to the wrapped stage and
//! observes the messages crossing it from outside: counts and bytes in
//! and out, when the stage started on each frame, and when each
//! deconvolved block left the stage. With tracing on it also keeps one
//! [`Span`] per `process` call. Nothing inside the program changes, and the
//! blocks pass through untouched: they are checked after the run.

use htims_core::capture::CaptureLog;
use htims_core::fault::FaultInjector;
use htims_core::pipeline::{Message, ObsTap, PipelineReport, Stage, SupervisorConfig};
use ims_obs::trace::now_ns;
use std::sync::{Arc, Mutex};

/// Where probes hand their records when the run finalizes.
pub type Sink = Arc<Mutex<Vec<LayerRecord>>>;

/// One `process` call of a probed stage.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call start, ns on the `ims_obs::trace` clock.
    pub start_ns: u64,
    /// Call end, same clock.
    pub end_ns: u64,
    /// Frame `seq_no` or block index of the input message.
    pub item: u64,
    /// Whether the call emitted a block (an accumulate drain, or a
    /// deconvolved block).
    pub emitted_block: bool,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Everything one probe saw during a run.
#[derive(Debug, Default)]
pub struct LayerRecord {
    pub name: &'static str,
    /// Data cells (words of frames, counts of blocks) taken in.
    pub cells_in: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub blocks_in: u64,
    /// Input blocks that carried a CSR sidecar.
    pub sparse_blocks_in: u64,
    /// Cell occupancy of sampled emitted blocks (traced runs only).
    pub occupancy: Vec<f64>,
    /// Origin stamp of the first frame this stage saw.
    pub first_origin_ns: Option<u64>,
    /// `(frame seq_no, stamp)` of each frame as the stage started on it.
    pub frame_start_ns: Vec<(u64, u64)>,
    /// `(block index, stamp)` of each deconvolved block as it left.
    pub block_out_ns: Vec<(u64, u64)>,
    pub spans: Vec<Span>,
}

/// Dense blocks whose occupancy a traced run samples (every 8th; a CSR
/// block reports its own occupancy for free).
const OCCUPANCY_SAMPLE_EVERY: u64 = 8;

pub struct Probe<S> {
    inner: S,
    traced: bool,
    /// Reused buffer for the wrapped stage's emissions.
    pending: Vec<Message>,
    rec: LayerRecord,
    sink: Sink,
}

impl<S: Stage> Probe<S> {
    pub fn new(inner: S, traced: bool, sink: Sink) -> Self {
        Self {
            inner,
            traced,
            pending: Vec::new(),
            rec: LayerRecord::default(),
            sink,
        }
    }
}

/// `(item id, frame origin stamp, cells, bytes)` of a message.
fn describe(msg: &Message) -> (u64, Option<u64>, u64, u64) {
    match msg {
        Message::Frame(p) => (
            p.seq_no,
            Some(p.origin_ns),
            p.n_words() as u64,
            p.len_bytes() as u64,
        ),
        Message::Block(b) => {
            // A CSR sidecar moves its runs (start + len, 4 bytes each) and
            // one u64 per non-zero cell on top of the dense copy.
            let csr = b.sparse.as_ref().map_or(0, |s| {
                let runs: usize = (0..s.drift_bins()).map(|d| s.row_runs(d).len()).sum();
                runs * 8 + s.nnz() * 8
            });
            (
                b.index,
                None,
                b.data.len() as u64,
                (b.data.len() * 8 + csr) as u64,
            )
        }
        Message::Deconvolved(b) => (b.index, None, b.data.len() as u64, b.data.len() as u64 * 8),
    }
}

impl<S: Stage> Stage for Probe<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn process(&mut self, msg: Message, emit: &mut dyn FnMut(Message)) {
        let (item, origin, cells, bytes) = describe(&msg);
        self.rec.cells_in += cells;
        self.rec.bytes_in += bytes;
        if let Message::Block(b) = &msg {
            self.rec.blocks_in += 1;
            self.rec.sparse_blocks_in += u64::from(b.sparse.is_some());
        }
        if let Some(o) = origin {
            self.rec.first_origin_ns.get_or_insert(o);
        }

        let mut out = std::mem::take(&mut self.pending);
        let start = if self.traced || origin.is_some() {
            now_ns()
        } else {
            0
        };
        if origin.is_some() {
            self.rec.frame_start_ns.push((item, start));
        }
        self.inner.process(msg, &mut |m| out.push(m));
        let leaves_block = out.iter().any(|m| matches!(m, Message::Deconvolved(_)));
        let end = if self.traced || leaves_block {
            now_ns()
        } else {
            0
        };

        let mut emitted_block = false;
        for m in out.drain(..) {
            self.rec.bytes_out += describe(&m).3;
            match m {
                Message::Block(b) => {
                    emitted_block = true;
                    if self.traced {
                        if let Some(s) = &b.sparse {
                            self.rec.occupancy.push(s.occupancy());
                        } else if b.index % OCCUPANCY_SAMPLE_EVERY == 0 && !b.data.is_empty() {
                            let nnz = b.data.iter().filter(|&&v| v != 0).count();
                            self.rec.occupancy.push(nnz as f64 / b.data.len() as f64);
                        }
                    }
                    emit(Message::Block(b));
                }
                Message::Deconvolved(b) => {
                    emitted_block = true;
                    self.rec.block_out_ns.push((b.index, end));
                    emit(Message::Deconvolved(b));
                }
                frame => emit(frame),
            }
        }
        self.pending = out;
        if self.traced {
            self.rec.spans.push(Span {
                start_ns: start,
                end_ns: end,
                item,
                emitted_block,
            });
        }
    }

    fn flush(&mut self, emit: &mut dyn FnMut(Message)) {
        self.inner.flush(emit);
    }

    fn finalize(&mut self, report: &mut PipelineReport) {
        self.inner.finalize(report);
        let mut rec = std::mem::take(&mut self.rec);
        rec.name = self.inner.name();
        self.sink
            .lock()
            .expect("a probe panicked while holding the sink")
            .push(rec);
    }

    fn cells_processed(&self) -> u64 {
        self.inner.cells_processed()
    }

    fn output_depth(&self, default: usize) -> usize {
        self.inner.output_depth(default)
    }

    fn arm_faults(&mut self, injector: &FaultInjector, supervisor: &SupervisorConfig) {
        self.inner.arm_faults(injector, supervisor);
    }

    fn arm_capture(&mut self, log: &CaptureLog) {
        self.inner.arm_capture(log);
    }

    fn arm_obs(&mut self, tap: &ObsTap) {
        self.inner.arm_obs(tap);
    }
}
