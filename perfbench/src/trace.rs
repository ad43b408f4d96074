//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent span and request id. Spans are
//! kept in memory and read once, after the timed phase. A span's layer is
//! the part of its name before the first `.` (`store.load_result` belongs
//! to `store`); a layer's self time is its spans' durations minus the time
//! their child spans on the same thread cover. A disabled tracer records
//! nothing and reads no clock, so untraced runs pay nothing for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One closed span; times are offsets from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub thread: u64,
    pub request: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The layer this span's time is charged to; the root span of an
    /// accounting (no `.` in its name) is charged to `unaccounted`.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "unaccounted",
        }
    }
}

struct Inner {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span recorder; cheap to clone, shared across threads.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A recording tracer when `enabled`, else one that records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            inner: enabled.then(|| {
                Arc::new(Inner {
                    origin: Instant::now(),
                    next_id: AtomicU64::new(1),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// Runs `f` inside a span whose parent is the innermost open span of
    /// this thread.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.span_under(parent, name, request, f)
    }

    /// Runs `f` inside a span with an explicit parent (used for the first
    /// span of a thread started inside another thread's span).
    pub fn span_under<T>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(inner) = &self.inner else {
            return f();
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = inner.origin.elapsed();
        let value = f();
        let end = inner.origin.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            start,
            end,
            thread: THREAD.with(|thread| *thread),
            request,
        };
        inner.spans.lock().expect("span list lock").push(span);
        value
    }

    /// The innermost open span of this thread.
    pub fn current(&self) -> Option<u64> {
        self.inner.as_ref()?;
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner.spans.lock().expect("span list lock").clone(),
            None => Vec::new(),
        }
    }
}

/// Self time of every span in the subtree of `root` that runs on the root's
/// thread, summed per layer. The values add up to the root's duration.
pub fn self_times(spans: &[Span], root: u64) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    let Some(root_span) = spans.iter().find(|span| span.id == root) else {
        return totals;
    };
    let mut stack = vec![root_span];
    while let Some(span) = stack.pop() {
        let children: Vec<&Span> = spans
            .iter()
            .filter(|child| child.parent == Some(span.id) && child.thread == root_span.thread)
            .collect();
        let covered: f64 = children.iter().map(|child| child.seconds()).sum();
        *totals.entry(span.layer()).or_insert(0.0) += span.seconds() - covered;
        stack.extend(children);
    }
    totals
}

/// Durations of all spans named `name`, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(Span::seconds)
        .collect()
}

/// Durations of the spans named `name` inside the subtree of `root`.
pub fn durations_under(spans: &[Span], root: u64, name: &str) -> Vec<f64> {
    let mut inside = vec![root];
    let mut found = Vec::new();
    while let Some(id) = inside.pop() {
        for span in spans.iter().filter(|span| span.parent == Some(id)) {
            if span.name == name {
                found.push(span.seconds());
            }
            inside.push(span.id);
        }
    }
    found
}
