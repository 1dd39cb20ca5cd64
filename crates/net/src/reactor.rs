//! The epoll wait of a shard worker ([`Wait::Epoll`](crate::polled::Wait)).
//!
//! A [`Reactor`] is built by `NetStoreBuilder::build` for a worker under
//! `Transport::Tcp` — before the fabric, so a worker without one gets
//! fabric reader threads instead — and owns the worker's socket input.
//! Between passes of the [`PolledWorker`] it blocks in `epoll_wait` with
//! [`ClientSession::next_wake`](lucky_core::runtime::ClientSession::next_wake)
//! armed on a dedicated `timerfd`, so
//!
//! * an idle worker costs **zero** CPU (no tick, no park loop — it
//!   sleeps in the kernel until a job, a byte, or a timer), and
//! * a timer wakes at nanosecond granularity instead of the
//!   whole-millisecond rounding `epoll_wait`'s timeout argument imposes.
//!
//! Registered interests:
//!
//! | token | fd | wakes the loop when |
//! |---|---|---|
//! | `TOKEN_WAKE` | eventfd | an input is sent to the worker |
//! | `TOKEN_LISTENER` | the slot's listener | the router connects |
//! | `TOKEN_TIMER` | timerfd | the next session timer is due |
//! | `TOKEN_CONN + i` | accepted conn `i` | protocol bytes arrive |
//!
//! Inputs wake the eventfd via `JobPort` (`crate::store`): a register
//! handle sends on the worker's input channel *then* writes the eventfd.
//!
//! Every failure after construction degrades rather than dies: if no
//! timerfd can be had (or arming one fails), the wait falls back to
//! `epoll_wait`'s millisecond-rounded timeout; a connection that fails
//! to register is dropped alone. Each degradation counts one
//! [`NetStats::io_errors`](crate::NetStats::io_errors).

use crate::polled::{PolledWorker, SocketIo};
use crate::router::NetStats;
use epoll::{Epoll, Events, TimerFd, WakeFd};
use parking_lot::Mutex;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Token of the input-wake eventfd.
const TOKEN_WAKE: u64 = 0;
/// Token of the worker's loopback listener.
const TOKEN_LISTENER: u64 = 1;
/// Token of the session-deadline timerfd.
const TOKEN_TIMER: u64 = 2;
/// Base token of accepted connections: conn slab index `i` registers as
/// `TOKEN_CONN + i`.
const TOKEN_CONN: u64 = 3;

/// One worker's epoll set and the socket input it watches.
pub(crate) struct Reactor {
    epoll: Epoll,
    wake: Arc<WakeFd>,
    /// `None` when no timerfd could be had: timeouts then round up to
    /// whole milliseconds.
    timer: Option<TimerFd>,
    io: SocketIo,
    events: Events,
    /// Shared with `NetStore::stats()`: counts every `epoll_wait`
    /// return, pinning the idle-burns-nothing property in tests.
    wakeups: Arc<AtomicU64>,
}

impl Reactor {
    /// Build the epoll set around a bound listener: wake eventfd +
    /// listener + deadline timerfd.
    ///
    /// # Errors
    ///
    /// Any failure to create the epoll instance or the eventfd, or to
    /// register either fd: the worker then waits on its input channel
    /// instead. A listener that cannot be made nonblocking is abandoned
    /// and a missing timer degrades — each counted in `io_errors` —
    /// without failing the construction.
    pub(crate) fn new(
        listener: TcpListener,
        stats: &Arc<Mutex<NetStats>>,
        tracer: &lucky_trace::Tracer,
        wakeups: Arc<AtomicU64>,
    ) -> std::io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let wake = Arc::new(WakeFd::new()?);
        epoll.add(wake.as_ref(), TOKEN_WAKE)?;
        // A degraded listener (already counted) leaves the worker
        // running for jobs + timers, so its ops fail by deadline
        // instead of hanging forever.
        let io = SocketIo::new(listener, stats, tracer);
        if let Some(listener) = io.listener() {
            epoll.add(listener, TOKEN_LISTENER)?;
        }
        let timer = TimerFd::new().ok().and_then(|t| epoll.add(&t, TOKEN_TIMER).ok().map(|()| t));
        if timer.is_none() {
            stats.lock().io_errors += 1;
        }
        Ok(Reactor { epoll, wake, timer, io, events: Events::new(), wakeups })
    }

    /// The eventfd that interrupts this reactor's `epoll_wait`.
    pub(crate) fn waker(&self) -> Arc<WakeFd> {
        Arc::clone(&self.wake)
    }

    /// Where the router's sink connects (`None` once the listener was
    /// abandoned).
    pub(crate) fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.io.listener().and_then(|l| l.local_addr().ok())
    }

    /// Sleep in the kernel until IO, an input, or the worker's next
    /// session timer, then read whatever arrived.
    pub(crate) fn wait(&mut self, worker: &mut PolledWorker) {
        // The timer is a timerfd armed with the *exact* next-wake delay
        // (re-armed every pass — settime replaces the old setting and
        // clears stale expiry), so the wait itself can block
        // indefinitely at full precision. No timer fd (or a failed arm)
        // falls back to epoll_wait's millisecond-rounded timeout; no
        // wake due at all → block until the eventfd or a socket.
        let delay = worker.next_wake_delay();
        let timeout = match (&self.timer, delay) {
            (Some(t), Some(d)) => t.arm(d).is_err().then_some(d),
            (Some(t), None) => {
                let _ = t.disarm();
                None
            }
            (None, d) => d,
        };
        if self.epoll.wait(&mut self.events, timeout).is_err() {
            worker.stats.lock().io_errors += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
            return;
        }
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        // Moved out (not copied) so the handlers below may borrow self.
        let events = std::mem::take(&mut self.events);
        for event in events.iter() {
            match event.token {
                TOKEN_WAKE => self.wake.drain(),
                TOKEN_LISTENER => self.accept_and_register(worker),
                TOKEN_TIMER => {
                    if let Some(t) = &self.timer {
                        t.drain();
                    }
                }
                // A dropped conn's fd closed with it, which deregistered
                // it from the epoll set; the slab hole is reused (and
                // re-registered) by the next accept.
                token => worker.read_conn(&mut self.io, (token - TOKEN_CONN) as usize),
            }
        }
        self.events = events;
    }

    /// Accept whatever the router connected and register each new
    /// connection; one that fails to register is dropped alone.
    fn accept_and_register(&mut self, worker: &mut PolledWorker) {
        for i in worker.accept_new(&mut self.io) {
            let Some(stream) = self.io.conn_stream(i) else { continue };
            if self.epoll.add(stream, TOKEN_CONN + i as u64).is_err() {
                worker.stats.lock().io_errors += 1;
                self.io.drop_conn(i);
                continue;
            }
            // Bytes may have raced ahead of the registration; reading
            // now costs nothing and keeps the reasoning simple.
            worker.read_conn(&mut self.io, i);
        }
    }
}
