//! In-memory span tracing, recorded from the benchmark's side of each call
//! into the simulator, and the forwarding model wrapper that puts a span
//! around every resolve call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use crate::api::{
    InterferenceModel, NodeId, Pool, ReceptionTable, ResolverStats, TxDelta, UnitDiskGraph,
};

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Spans in the order they were opened; a stack of open spans supplies
/// each new span's parent.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl SpanLog {
    /// A log whose storage is reserved up front, so that recording does not
    /// allocate until `capacity` spans have been opened.
    pub fn new(epoch: Instant, capacity: usize) -> Rc<Self> {
        Rc::new(SpanLog {
            epoch,
            spans: RefCell::new(Vec::with_capacity(capacity)),
            open: RefCell::new(Vec::with_capacity(16)),
        })
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &'static str) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: open.last().copied().unwrap_or(ROOT),
        });
        open.push(id);
        id
    }

    pub fn close(&self, id: u32) {
        let now = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans.borrow_mut()[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// An interference model that forwards every method to `inner` and records
/// a `sinr.resolve` span around each resolve call.
pub struct TracedModel<M> {
    inner: M,
    log: Rc<SpanLog>,
}

impl<M> TracedModel<M> {
    pub fn new(inner: M, log: Rc<SpanLog>) -> Self {
        TracedModel { inner, log }
    }

    pub fn inner(&self) -> &M {
        &self.inner
    }
}

pub const RESOLVE: &str = "sinr.resolve";

impl<M: InterferenceModel> InterferenceModel for TracedModel<M> {
    fn resolve(&self, g: &UnitDiskGraph, transmitting: &[NodeId]) -> ReceptionTable {
        self.log
            .scope(RESOLVE, || self.inner.resolve(g, transmitting))
    }

    fn resolve_delta(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
    ) -> ReceptionTable {
        self.log
            .scope(RESOLVE, || self.inner.resolve_delta(g, transmitting, delta))
    }

    fn resolve_delta_into(
        &self,
        g: &UnitDiskGraph,
        transmitting: &[NodeId],
        delta: TxDelta<'_>,
        out: &mut ReceptionTable,
    ) {
        self.log.scope(RESOLVE, || {
            self.inner.resolve_delta_into(g, transmitting, delta, out)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn resolver_stats(&self) -> Option<ResolverStats> {
        self.inner.resolver_stats()
    }

    fn set_pool(&mut self, pool: &Pool) {
        self.inner.set_pool(pool)
    }
}

/// Spans of several threads as one Chrome trace document (`ph: "X"`
/// events, microseconds), loadable in Perfetto.
pub fn chrome_trace(threads: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                parent
            );
        }
    }
    out.push_str("]}\n");
    out
}
