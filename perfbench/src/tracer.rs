//! In-memory span recorder for the traced (`--trace 1`) run.
//!
//! A span is `(id, parent, name, start, end)` in nanoseconds since the
//! process epoch. Spans are opened around the benchmark's calls into a
//! layer's public functions; the parent is the innermost span still open
//! on the same thread, or an explicit parent for spans that start on a
//! spawned thread. Nothing is recorded while tracing is off, and the
//! whole buffer is written out once, at exit.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Turns recording on (before any span is opened).
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; closes (and is recorded) when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard {
    /// This span's id (0 when tracing is off), for spans opened on other
    /// threads with [`child_of`].
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Opens a span whose parent is the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
    child_of(name, parent)
}

/// Opens a span under an explicit parent (0 = root).
pub fn child_of(name: &'static str, parent: u64) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|open| open.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// Every span recorded so far, in closing order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().map(|s| s.clone()).unwrap_or_default()
}

/// Self time of every span: its duration minus the union of the
/// intervals its children cover (children on other threads may overlap
/// each other). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<i128> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered: i128 = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut lo, mut hi) = (kids[0].0, kids[0].1);
                for &(a, b) in &kids[1..] {
                    if a > hi {
                        covered += i128::from(hi - lo);
                        lo = a;
                        hi = b;
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += i128::from(hi - lo);
            }
            i128::from(s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Writes the spans as one JSON document:
/// `{"spans":[{"id":..,"parent":..,"name":..,"start_ns":..,"end_ns":..,"self_ns":..},...]}`.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = String::from("{\"spans\":[\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{}\n",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            self_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}
