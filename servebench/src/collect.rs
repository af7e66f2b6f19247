//! Reply collection: one slot per plan item, filled by whoever answers it.

use dpx_serve::{DaemonReply, ExplainResponse, ReplySink};
use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// What the benchmark keeps of one response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// When the rendered line was ready — the end of the request's latency.
    pub at: Instant,
    pub ok: bool,
    pub reason: Option<String>,
    pub error: Option<String>,
    /// FNV-1a of the rendered response line.
    pub hash: u64,
    /// Selected attribute per cluster (explains).
    pub attributes: Vec<usize>,
    /// Dataset rows after the append (appends).
    pub total_rows: Option<u64>,
}

#[derive(Default)]
struct State {
    replies: Vec<Option<Reply>>,
    sent: usize,
    done: usize,
    /// Replies that could not be matched to a plan item.
    stray: usize,
}

/// Reply slots indexed by request id (plan ids are plan indices).
#[derive(Default)]
pub struct Collector {
    state: Mutex<State>,
    changed: Condvar,
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

thread_local! {
    static LINE: RefCell<String> = const { RefCell::new(String::new()) };
}

impl Collector {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Renders `response` as its wire line (like a transport would), stamps
    /// the reply time, and files it. Returns the render time.
    pub fn answer(&self, response: &ExplainResponse) -> Duration {
        let start = Instant::now();
        let hash = LINE.with(|line| {
            let mut line = line.borrow_mut();
            response.render_json_line_into(&mut line);
            fnv1a(line.as_bytes())
        });
        let at = Instant::now();
        let reply = Reply {
            at,
            ok: response.is_ok(),
            reason: response.reason.clone(),
            error: response.outcome.as_ref().err().cloned(),
            hash,
            attributes: response
                .explanation()
                .map(|served| served.attributes.clone())
                .unwrap_or_default(),
            total_rows: response.append().map(|summary| summary.total_rows),
        };
        let mut state = self.lock();
        let index = response.id as usize;
        if state.replies.len() <= index {
            state.replies.resize(index + 1, None);
        }
        if state.replies[index].is_some() {
            state.stray += 1;
        } else {
            state.replies[index] = Some(reply);
        }
        state.done += 1;
        drop(state);
        self.changed.notify_all();
        at - start
    }

    /// A daemon reply sink filing every response here.
    pub fn sink(self: &Arc<Self>) -> ReplySink {
        let collector = Arc::clone(self);
        Arc::new(move |reply: DaemonReply<'_>| match reply {
            DaemonReply::Response(response) => {
                collector.answer(response);
            }
            DaemonReply::Control(_) => {
                let mut state = collector.lock();
                state.stray += 1;
                state.done += 1;
                drop(state);
                collector.changed.notify_all();
            }
        })
    }

    /// Counts one request as sent (before it is handed to the server).
    pub fn note_sent(&self) {
        self.lock().sent += 1;
    }

    /// Blocks until at most `limit` sent requests are unanswered, or until
    /// `deadline` passes. Returns whether the limit holds.
    pub fn wait_outstanding(&self, limit: usize, deadline: Instant) -> bool {
        let mut state = self.lock();
        loop {
            if state.sent - state.done.min(state.sent) <= limit {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            state = self
                .changed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    pub fn stray(&self) -> usize {
        self.lock().stray
    }

    /// The reply of plan item `index`, if answered.
    #[cfg(test)]
    pub fn get(&self, index: usize) -> Option<Reply> {
        self.lock().replies.get(index).cloned().flatten()
    }

    /// Every reply slot so far.
    pub fn replies(&self) -> Vec<Option<Reply>> {
        self.lock().replies.clone()
    }
}

/// Digest of the replies to plan items `indices`, in plan order; a missing
/// reply poisons the digest.
pub fn digest(replies: &[Option<Reply>], indices: impl Iterator<Item = usize>) -> u64 {
    let mut bytes = Vec::new();
    for index in indices {
        let hash = replies
            .get(index)
            .and_then(Option::as_ref)
            .map_or(0, |r| r.hash);
        bytes.extend_from_slice(&hash.to_le_bytes());
    }
    fnv1a(&bytes)
}
