//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Nothing inside the program is instrumented. A traced run wraps the
//! binding in [`Traced`], which times `Binding::submit` and attaches a
//! [`DeliveryObserver`] to every upcall, and the benchmark times its own
//! `Client::invoke*` calls. All spans of one operation share its op id;
//! `binding.*` spans name `core.invoke` as the span that caused them.
//! Spans stay in memory until the run ends and are then written as JSON
//! lines.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use correctables::{
    Binding, Client, ConsistencyLevel, Correctable, DeliveryObserver, Error, Upcall,
};
use parking_lot::Mutex;
use quorumstore::{Key, StoreOp, Value, Versioned};

/// One timed interval of one operation (op id 0 for spans not tied to
/// one operation, such as a `sim.settle` batch or a wire loop).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The operation the span belongs to.
    pub op: u64,
    /// Layer and step, e.g. `core.invoke` or `binding.final`.
    pub name: &'static str,
    /// Start, nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_op: AtomicU64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 20)),
            next_op: AtomicU64::new(1),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one span.
    pub fn record(&self, op: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.lock().push(Span {
            op,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().iter() {
            let parent = if s.name.starts_with("binding.") {
                "\"core.invoke\""
            } else {
                "null"
            };
            writeln!(
                out,
                "{{\"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A binding wrapper that records `binding.submit` and one span per
/// accepted view (`binding.prelim`, `binding.final`) or failure
/// (`binding.fail`), each running from the return of `submit`.
pub struct Traced<B> {
    inner: B,
    tracer: Arc<Tracer>,
    last_op: AtomicU64,
}

impl<B> Traced<B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Traced<B> {
        Traced {
            inner,
            tracer,
            last_op: AtomicU64::new(0),
        }
    }
}

struct ViewSpans {
    op: u64,
    tracer: Arc<Tracer>,
    submitted_ns: AtomicU64,
}

impl ViewSpans {
    fn close(&self, name: &'static str) {
        let now = self.tracer.now();
        let from = self.submitted_ns.load(Ordering::Relaxed).min(now);
        self.tracer.record(self.op, name, from, now);
    }
}

impl<T> DeliveryObserver<T> for ViewSpans {
    fn on_view(&self, _value: T, _level: ConsistencyLevel, closing: bool) {
        self.close(if closing {
            "binding.final"
        } else {
            "binding.prelim"
        });
    }

    fn on_fail(&self, _error: &Error) {
        self.close("binding.fail");
    }
}

impl<B: Binding> Binding for Traced<B> {
    type Op = B::Op;
    type Val = B::Val;

    fn consistency_levels(&self) -> correctables::LevelSet {
        self.inner.consistency_levels()
    }

    fn submit(&self, op: B::Op, levels: &[ConsistencyLevel], upcall: Upcall<B::Val>) {
        let id = self.tracer.next_op.fetch_add(1, Ordering::Relaxed);
        self.last_op.store(id, Ordering::Relaxed);
        let start = self.tracer.now();
        let views = Arc::new(ViewSpans {
            op: id,
            tracer: Arc::clone(&self.tracer),
            submitted_ns: AtomicU64::new(start),
        });
        self.inner
            .submit(op, levels, upcall.with_observer(views.clone()));
        let end = self.tracer.now();
        views.submitted_ns.store(end, Ordering::Relaxed);
        self.tracer.record(id, "binding.submit", start, end);
    }
}

/// How the workloads issue operations: straight through a `Client`, or
/// through a `Client` over [`Traced`] with `core.invoke` spans.
pub trait Invoke {
    /// An ICG read (weak then strong).
    fn read(&self, key: u64) -> Correctable<Versioned>;
    /// A strong write of an opaque value.
    fn write(&self, key: u64, value: u32) -> Correctable<Versioned>;
    /// The op id of the last call when traced, 0 otherwise.
    fn last_op(&self) -> u64 {
        0
    }
}

/// The untraced path: the shipping `Client` over the shipping binding.
pub struct Plain<B: Binding>(pub Client<B>);

impl<B: Binding<Op = StoreOp, Val = Versioned>> Invoke for Plain<B> {
    fn read(&self, key: u64) -> Correctable<Versioned> {
        self.0.invoke(StoreOp::Read(Key::plain(key)))
    }

    fn write(&self, key: u64, value: u32) -> Correctable<Versioned> {
        self.0
            .invoke_strong(StoreOp::Write(Key::plain(key), Value::Opaque(value)))
    }
}

/// The traced path.
pub struct TracedClient<B: Binding> {
    client: Client<Traced<B>>,
    tracer: Arc<Tracer>,
}

impl<B: Binding> TracedClient<B> {
    /// A client over `Traced(binding)`.
    pub fn new(binding: B, tracer: &Arc<Tracer>) -> TracedClient<B> {
        TracedClient {
            client: Client::new(Traced::new(binding, Arc::clone(tracer))),
            tracer: Arc::clone(tracer),
        }
    }

    fn timed(
        &self,
        f: impl FnOnce(&Client<Traced<B>>) -> Correctable<B::Val>,
    ) -> Correctable<B::Val> {
        let start = self.tracer.now();
        let c = f(&self.client);
        let end = self.tracer.now();
        let op = self.client.binding().last_op.load(Ordering::Relaxed);
        self.tracer.record(op, "core.invoke", start, end);
        c
    }
}

impl<B: Binding<Op = StoreOp, Val = Versioned>> Invoke for TracedClient<B> {
    fn read(&self, key: u64) -> Correctable<Versioned> {
        self.timed(|c| c.invoke(StoreOp::Read(Key::plain(key))))
    }

    fn write(&self, key: u64, value: u32) -> Correctable<Versioned> {
        self.timed(|c| c.invoke_strong(StoreOp::Write(Key::plain(key), Value::Opaque(value))))
    }

    fn last_op(&self) -> u64 {
        self.client.binding().last_op.load(Ordering::Relaxed)
    }
}
