//! A bounded MPMC job queue with backpressure and close semantics.
//!
//! Reactor shards push parsed requests; the worker pool pops them. The
//! queue is deliberately tiny machinery — one mutex, one condvar —
//! because the jobs themselves are coarse (a whole simulation or grid
//! search), so queue overhead is noise.
//!
//! Backpressure: [`JobQueue::push`] never blocks. A full queue gives the
//! job back at once, so the caller can answer the client with a "queue
//! full" error instead of buffering unboundedly or stalling its event
//! loop. Close: [`JobQueue::close`] wakes every popper; later pushes get
//! their job back, poppers drain what remains and then see `None` — that
//! is the graceful shutdown path.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Why a push was refused; the job is handed back either way.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was full.
    Full(T),
    /// The queue was closed (server shutting down).
    Closed(T),
}

/// A bounded multi-producer multi-consumer FIFO.
#[derive(Debug)]
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `cap` jobs (min 1).
    pub fn new(cap: usize) -> Self {
        JobQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues `item` if there is room.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the queue holds `cap` jobs;
    /// [`PushError::Closed`] when the queue was closed. Both return the
    /// item.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next job, blocking while the queue is open and empty.
    /// Returns `None` only once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: pending jobs stay poppable, new pushes fail, and
    /// every waiting popper wakes. Idempotent.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        self.not_empty.notify_all();
    }

    /// True once [`close`](Self::close) has run.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// True when no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_len() {
        let q = JobQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_refuses_at_once() {
        let q = JobQueue::new(1);
        q.push(1).unwrap();
        match q.push(2) {
            Err(PushError::Full(2)) => {}
            other => panic!("expected Full(2), got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(8), Err(PushError::Closed(8)));
        // The job enqueued before close is still served…
        assert_eq!(q.pop(), Some(7));
        // …and only then does the queue end.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_popper_wakes_on_close() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(1));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
