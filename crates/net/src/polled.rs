//! The shard worker: the runtime's one client driver.
//!
//! A [`PolledWorker`] multiplexes **all of a shard's client sessions on
//! one thread**. Each pass drains the worker's input channel (jobs from
//! register handles and, for a channel-waiting worker, protocol
//! deliveries), wakes the sessions whose timers are due, settles
//! finished operations, begins queued ones and pumps their outputs to
//! the router. The sans-io `ClientSession` holds all protocol and
//! deadline logic, so workers differ only in how they **wait** for the
//! next input — a choice `NetStoreBuilder::build` makes per worker:
//!
//! * [`Wait::Epoll`] — under `Transport::Tcp`, when an epoll instance
//!   and a wake eventfd can be set up: the worker owns its slot's
//!   loopback listener (the fabric spawns no reader threads for it),
//!   reassembles frames with `lucky-wire`'s push-based
//!   [`FrameDecoder`], and sleeps in `epoll_wait` (`crate::reactor`);
//! * [`Wait::Channel`] — `recv_timeout` on the input channel until the
//!   earliest session wake. Under `Transport::Channel` the router sends
//!   every delivery to that channel, tagged with its recipient; under
//!   `Transport::Tcp` without epoll, the fabric's reader threads for the
//!   worker's slot do.
//!
//! Socket setup failures degrade instead of killing the worker: a
//! connection that cannot be made nonblocking is dropped (counted in
//! [`NetStats::io_errors`]), a listener that cannot be is abandoned —
//! the shard's sessions then fail per operation (deadline) rather than
//! stranding every session the worker multiplexes.

use crate::cluster::{trace_actor, NetError, NetOutcome};
use crate::future::NotifyGuard;
use crate::reactor::Reactor;
use crate::router::{Envelope, NetStats};
use lucky_core::runtime::{ClientSession, Input};
use lucky_types::{History, Message, Op, OpId, OpRecord, ProcessId, RegisterId, Time};
use lucky_wire::{decode_packet, FrameDecoder};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The client-driving strategy of a `NetStore`. **Single-valued**:
/// every store runs one multiplexing worker per shard, and
/// `build()` decides per worker whether it waits in `epoll_wait` or on
/// its input channel (from the transport and from whether epoll could
/// be set up) — so there is nothing left to choose. The type and
/// `NetStoreBuilder::driver` remain so existing
/// `.driver(Driver::Reactor)` calls keep compiling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Driver {
    /// One multiplexing worker per shard, all of the shard's client
    /// sessions on one thread; operations on different sessions of one
    /// worker proceed concurrently, and an idle worker blocks without a
    /// tick (zero CPU).
    #[default]
    Reactor,
}

/// A job submitted to a shard worker: run `op` on the session keyed by
/// `slot` and send the outcome back through `reply`. `notify` wakes the
/// op's future (if the job came from the futures API) once the reply
/// has been sent — or on any path that drops the job, so a future can
/// never be lost.
pub(crate) struct Job {
    pub(crate) slot: (RegisterId, u32),
    pub(crate) op: Op,
    pub(crate) reply: Sender<Result<NetOutcome, NetError>>,
    pub(crate) notify: Option<NotifyGuard>,
}

/// Everything a shard worker's input channel carries.
pub(crate) enum WorkerInput {
    /// An operation submitted through a register handle.
    Job(Job),
    /// A protocol message for the hosted client process `to` (channel
    /// wait only; an epoll worker reads its own socket).
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Recipient, one of this worker's client processes.
        to: ProcessId,
        /// Payload.
        msg: Message,
    },
    /// The store shut down: fail what is in flight and exit.
    Stop,
}

/// The operation currently in flight on one session, with its per-op
/// traffic attribution (wire messages sent/received and their
/// codec-exact bytes while the op was pending — the same accounting the
/// sim world's `apply_effects`/`account_delivery` perform).
struct Current {
    op: Op,
    reply: Sender<Result<NetOutcome, NetError>>,
    notify: Option<NotifyGuard>,
    start: Instant,
    invoked_at: Time,
    msgs: u64,
    bytes: u64,
}

/// A queued operation: what to run, where the outcome goes, and the
/// optional future wakeup to fire once the reply is observable.
type QueuedOp = (Op, Sender<Result<NetOutcome, NetError>>, Option<NotifyGuard>);

/// One session plus its queued work.
pub(crate) struct PolledSlot {
    pub(crate) session: ClientSession,
    queue: VecDeque<QueuedOp>,
    current: Option<Current>,
}

impl PolledSlot {
    pub(crate) fn new(session: ClientSession) -> PolledSlot {
        PolledSlot { session, queue: VecDeque::new(), current: None }
    }

    /// Credit one delivered wire message to the pending op (if any).
    fn credit_delivery(&mut self, msg: &Message) {
        if let Some(cur) = self.current.as_mut() {
            cur.msgs += 1;
            cur.bytes += msg.wire_size() as u64;
        }
    }

    /// Forward everything the session wants sent to the router,
    /// attributing each send to the pending op.
    fn pump(&mut self, router: &Sender<Envelope>) {
        let from = self.session.id();
        while let Some(out) = self.session.poll_output() {
            let (to, msg) = out.into_send();
            if let Some(cur) = self.current.as_mut() {
                cur.msgs += 1;
                cur.bytes += msg.wire_size() as u64;
            }
            let _ = router.send(Envelope::Deliver { from, to, msg });
        }
    }
}

/// An epoll worker's TCP input: its own loopback listener (nonblocking;
/// `None` if it could not be made so — the worker then runs without
/// accepting, degraded but alive), plus a slab of the connections
/// accepted so far with their frame decoders. Slab indices are stable
/// (closed connections leave a `None` hole) so epoll tokens stay valid
/// across closes.
pub(crate) struct SocketIo {
    listener: Option<TcpListener>,
    conns: Vec<Option<(TcpStream, FrameDecoder)>>,
}

impl SocketIo {
    /// Flip a bound listener nonblocking. If the OS refuses, the
    /// listener is **abandoned** (counted in [`NetStats::io_errors`])
    /// rather than kept blocking — a blocking `accept` would wedge the
    /// whole shard worker, whereas a worker without a listener merely
    /// lets its sessions fail per operation.
    pub(crate) fn new(
        listener: TcpListener,
        stats: &Arc<Mutex<NetStats>>,
        tracer: &lucky_trace::Tracer,
    ) -> SocketIo {
        let listener = match listener.set_nonblocking(true) {
            Ok(()) => Some(listener),
            Err(_) => {
                stats.lock().io_errors += 1;
                tracer.note_io_error(0, "worker listener cannot be made nonblocking; abandoned");
                discard_broken(listener);
                None
            }
        };
        SocketIo { listener, conns: Vec::new() }
    }

    /// The listener, for epoll registration and the router's sink
    /// (`None` once abandoned).
    pub(crate) fn listener(&self) -> Option<&TcpListener> {
        self.listener.as_ref()
    }

    /// The accepted connection at slab index `i`, for epoll
    /// registration.
    pub(crate) fn conn_stream(&self, i: usize) -> Option<&TcpStream> {
        self.conns.get(i).and_then(|c| c.as_ref()).map(|(s, _)| s)
    }

    /// Drop the accepted connection at slab index `i` (its hole is
    /// reused by later accepts).
    pub(crate) fn drop_conn(&mut self, i: usize) {
        if let Some(c) = self.conns.get_mut(i) {
            *c = None;
        }
    }
}

/// How a worker blocks between passes; chosen per worker by
/// `NetStoreBuilder::build`.
pub(crate) enum Wait {
    /// `recv_timeout` on the input channel until the next session wake.
    Channel,
    /// `epoll_wait` on the worker's socket, wake eventfd and timerfd.
    Epoll(Reactor),
}

pub(crate) struct PolledWorker {
    pub(crate) sessions: BTreeMap<(RegisterId, u32), PolledSlot>,
    /// Recipient → session key, for dispatching inbound messages.
    pub(crate) by_pid: BTreeMap<ProcessId, (RegisterId, u32)>,
    pub(crate) input: Receiver<WorkerInput>,
    pub(crate) router: Sender<Envelope>,
    pub(crate) history: Arc<Mutex<History>>,
    pub(crate) stats: Arc<Mutex<NetStats>>,
    pub(crate) epoch: Instant,
    pub(crate) tracer: Arc<lucky_trace::Tracer>,
}

impl PolledWorker {
    /// Session time: microseconds since the store's epoch (shared by
    /// every worker so history timestamps interleave correctly).
    pub(crate) fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_micros() as u64)
    }

    /// Run until the store stops the worker (or drops every sender);
    /// whatever is still in flight then fails with
    /// [`NetError::Disconnected`].
    pub(crate) fn run(mut self, mut wait: Wait) {
        while self.drain_input() {
            self.fire_due_wakes();
            self.advance();
            let running = match &mut wait {
                Wait::Channel => self.wait_on_channel(),
                Wait::Epoll(reactor) => {
                    reactor.wait(&mut self);
                    true
                }
            };
            if !running {
                break;
            }
        }
        self.abandon();
    }

    /// Take everything already queued on the input channel; `false`
    /// once the worker must stop.
    fn drain_input(&mut self) -> bool {
        loop {
            match self.input.try_recv() {
                Ok(input) => {
                    if !self.take(input) {
                        return false;
                    }
                }
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Apply one input; `false` for [`WorkerInput::Stop`].
    fn take(&mut self, input: WorkerInput) -> bool {
        match input {
            WorkerInput::Job(job) => self.enqueue(job),
            WorkerInput::Deliver { from, to, msg } => {
                let now = self.now();
                deliver(&self.by_pid, &mut self.sessions, &self.stats, from, to, msg, now);
            }
            WorkerInput::Stop => return false,
        }
        true
    }

    /// Block on the input channel until an input arrives or the next
    /// session wake is due — no sleep cap, no tick. `false` once the
    /// worker must stop.
    fn wait_on_channel(&mut self) -> bool {
        let received = match self.next_wake_delay() {
            Some(delay) => match self.input.recv_timeout(delay) {
                Err(RecvTimeoutError::Timeout) => return true,
                received => received.ok(),
            },
            None => self.input.recv().ok(),
        };
        received.is_some_and(|input| self.take(input))
    }

    /// Wake every session whose `next_wake` is due.
    fn fire_due_wakes(&mut self) {
        let now = self.now();
        for slot in self.sessions.values_mut() {
            if slot.session.next_wake().is_some_and(|due| due <= now) {
                slot.session.handle(Input::Wake, now);
            }
        }
    }

    /// How long until the earliest session timer is due (`None` when no
    /// session needs waking — e.g. fully idle): the channel wait's
    /// timeout and the reactor's timerfd setting.
    pub(crate) fn next_wake_delay(&self) -> Option<Duration> {
        let now = self.now();
        self.sessions
            .values()
            .filter_map(|s| s.session.next_wake())
            .min()
            .map(|due| Duration::from_micros(due.0.saturating_sub(now.0)))
    }

    fn enqueue(&mut self, job: Job) {
        // An unknown slot cannot happen (handle construction prevents
        // it); if it did, dropping the reply sender surfaces as a
        // disconnect to the caller (and the dropped notify guard wakes
        // the op's future, if any).
        if let Some(slot) = self.sessions.get_mut(&job.slot) {
            slot.queue.push_back((job.op, job.reply, job.notify));
        }
    }

    /// The worker stops: fail every in-flight op with
    /// [`NetError::Disconnected`] and drop the queued ones (their
    /// dropped reply senders report the same).
    fn abandon(&mut self) {
        let now = self.now();
        for slot in self.sessions.values_mut() {
            slot.queue.clear();
            if let Some(cur) = slot.current.take() {
                resolve(
                    &self.history,
                    &self.tracer,
                    &slot.session,
                    cur,
                    Err(NetError::Disconnected),
                    now,
                );
            }
        }
    }

    /// Accept every connection the router has established, returning
    /// the slab indices of the new connections so the reactor can
    /// register them. A connection that cannot be made nonblocking is
    /// dropped and counted — one bad socket must not kill the worker.
    pub(crate) fn accept_new(&mut self, io: &mut SocketIo) -> Vec<usize> {
        let mut added = Vec::new();
        let Some(listener) = io.listener.as_ref() else { return added };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.lock().io_errors += 1;
                        self.tracer.note_io_error(
                            self.epoch.elapsed().as_micros() as u64,
                            "accepted connection cannot be made nonblocking; dropped",
                        );
                        discard_broken(stream);
                        continue;
                    }
                    let i = match io.conns.iter().position(Option::is_none) {
                        Some(hole) => hole,
                        None => {
                            io.conns.push(None);
                            io.conns.len() - 1
                        }
                    };
                    io.conns[i] = Some((stream, FrameDecoder::new()));
                    added.push(i);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        added
    }

    /// Read connection `i` dry: reassemble frames, decode, dispatch to
    /// sessions. Closes the connection on EOF, IO error or the first
    /// malformed frame (counted — a corrupt stream has no trustworthy
    /// framing left).
    pub(crate) fn read_conn(&mut self, io: &mut SocketIo, i: usize) {
        let now = self.now();
        let Some(Some((stream, dec))) = io.conns.get_mut(i) else { return };
        let mut buf = [0u8; 16 * 1024];
        let mut close = false;
        'conn: loop {
            match stream.read(&mut buf) {
                Ok(0) => {
                    close = true;
                    break;
                }
                Ok(n) => {
                    dec.feed(&buf[..n]);
                    loop {
                        match dec.next_frame() {
                            Ok(Some(payload)) => match decode_packet(&payload) {
                                Ok(parts) => dispatch(
                                    &parts,
                                    &self.by_pid,
                                    &mut self.sessions,
                                    &self.stats,
                                    now,
                                ),
                                Err(_) => {
                                    self.stats.lock().decode_errors += 1;
                                    close = true;
                                    break 'conn;
                                }
                            },
                            Ok(None) => break,
                            Err(_) => {
                                self.stats.lock().decode_errors += 1;
                                close = true;
                                break 'conn;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if close {
            io.conns[i] = None;
        }
    }

    /// Settle finished operations, begin queued ones on free sessions,
    /// and forward every output to the router. A slot settles *before*
    /// its next op begins, in the same pass: the begin arms the
    /// session's next timer, so the worker's next wait has a timeout
    /// even when the settle came from the last timer it had.
    fn advance(&mut self) {
        let now = self.now();
        for slot in self.sessions.values_mut() {
            slot.pump(&self.router);
            if slot.session.is_settled() {
                if let Some(cur) = slot.current.take() {
                    let result = match slot.session.take_outcome() {
                        Some(outcome) => {
                            Ok(NetOutcome::from_session(outcome, &cur.op, cur.start.elapsed()))
                        }
                        None => Err(slot
                            .session
                            .take_failure()
                            .expect("a settled session without an outcome has failed")
                            .into()),
                    };
                    resolve(&self.history, &self.tracer, &slot.session, cur, result, now);
                }
            }
            if slot.current.is_none() && slot.session.is_ready() {
                if let Some((op, reply, notify)) = slot.queue.pop_front() {
                    slot.session
                        .begin(op.clone(), now)
                        .expect("is_ready checked; sessions run one op at a time");
                    slot.current = Some(Current {
                        op,
                        reply,
                        notify,
                        start: Instant::now(),
                        invoked_at: now,
                        msgs: 0,
                        bytes: 0,
                    });
                    slot.pump(&self.router);
                }
            }
        }
    }
}

/// Resolve one operation: trace it, append its history record, send
/// the reply — and only then drop the notify guard, so the op's future
/// (if any) wakes after the reply is observable.
fn resolve(
    history: &Arc<Mutex<History>>,
    tracer: &lucky_trace::Tracer,
    session: &ClientSession,
    cur: Current,
    result: Result<NetOutcome, NetError>,
    now: Time,
) {
    let actor = trace_actor(session.id(), session.reg());
    let write = matches!(cur.op, Op::Write(_));
    let completion = match &result {
        Ok(net) => {
            tracer.record_settle(
                actor,
                write,
                net.rounds,
                net.fast,
                net.elapsed.as_micros() as u64,
                session.span(),
            );
            Some((now, net))
        }
        Err(err) => {
            tracer.record_failure(actor, write, err.fail_reason(), session.span());
            None
        }
    };
    append_history(
        history,
        session.reg(),
        session.id(),
        cur.op,
        cur.invoked_at,
        completion,
        (cur.msgs, cur.bytes),
    );
    let _ = cur.reply.send(result);
    drop(cur.notify);
}

/// Dispose of a socket whose `set_nonblocking` failed. The practical
/// failure is `EBADF` — the descriptor is already dead (closed out from
/// under us) — and `OwnedFd`'s drop *aborts the process* on a
/// double-close. So instead of dropping, close through the raw,
/// EBADF-tolerant helper and forget the handle: a live descriptor is
/// closed exactly once, a dead one is left alone, and the worker
/// survives either way.
fn discard_broken(socket: impl std::os::fd::AsRawFd) {
    epoll::close_fd(socket.as_raw_fd());
    std::mem::forget(socket);
}

/// Hand decoded packet parts to their sessions.
fn dispatch(
    parts: &[(ProcessId, ProcessId, Message)],
    by_pid: &BTreeMap<ProcessId, (RegisterId, u32)>,
    sessions: &mut BTreeMap<(RegisterId, u32), PolledSlot>,
    stats: &Arc<Mutex<NetStats>>,
    now: Time,
) {
    for (from, to, msg) in parts {
        deliver(by_pid, sessions, stats, *from, *to, msg.clone(), now);
    }
}

/// Hand one protocol message to the session of its recipient. A message
/// addressed to a process this worker does not host (only hostile
/// frames produce one) counts as dropped, mirroring the fabric's
/// accounting.
fn deliver(
    by_pid: &BTreeMap<ProcessId, (RegisterId, u32)>,
    sessions: &mut BTreeMap<(RegisterId, u32), PolledSlot>,
    stats: &Arc<Mutex<NetStats>>,
    from: ProcessId,
    to: ProcessId,
    msg: Message,
    now: Time,
) {
    match by_pid.get(&to).and_then(|key| sessions.get_mut(key)) {
        Some(slot) => {
            slot.credit_delivery(&msg);
            slot.session.handle(Input::Deliver(from, msg), now);
        }
        None => stats.lock().dropped += msg.part_count() as u64,
    }
}

/// Append one finished (or abandoned) operation to the shared history —
/// the single recording path of the shard worker. `completion`
/// is `None` for a failed operation (it stays an incomplete record, so
/// the checkers treat it as pending, never as a bogus completion).
/// `traffic` is the op's `(msgs, bytes)` attribution, counted by the
/// worker while the op was pending — the same population the sim world
/// records, so sim-vs-net comparisons read real numbers.
pub(crate) fn append_history(
    history: &Arc<Mutex<History>>,
    reg: RegisterId,
    client: ProcessId,
    op: Op,
    invoked_at: Time,
    completion: Option<(Time, &NetOutcome)>,
    traffic: (u64, u64),
) {
    let mut h = history.lock();
    let id = OpId(h.ops.len() as u64);
    let (completed_at, result, rounds, fast) = match completion {
        Some((at, net)) => (
            Some(at),
            match op {
                Op::Read => Some(net.value.clone()),
                Op::Write(_) => None,
            },
            net.rounds,
            net.fast,
        ),
        None => (None, None, 0, false),
    };
    h.ops.push(OpRecord {
        id,
        reg,
        client,
        op,
        invoked_at,
        completed_at,
        result,
        rounds,
        fast,
        msgs: traffic.0,
        bytes: traffic.1,
    });
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use lucky_core::runtime::{SessionConfig, Setup};
    use lucky_core::ProtocolConfig;
    use lucky_types::Params;
    use std::os::fd::OwnedFd;
    use std::os::unix::fs::OpenOptionsExt;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::channel;

    /// A listener whose every socket call fails with `EBADF` although
    /// its descriptor is open and ours: an `O_PATH` handle on `/`.
    /// Closing a real listener's descriptor instead would free its
    /// number for whatever a parallel test opens next — and the
    /// degradation path would then operate on that test's socket.
    fn unusable_listener() -> TcpListener {
        const O_PATH: i32 = 0o10_000_000;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .custom_flags(O_PATH)
            .open("/")
            .expect("open an O_PATH handle");
        TcpListener::from(OwnedFd::from(file))
    }

    fn one_session_worker(
        deadline_micros: u64,
    ) -> (PolledWorker, Sender<WorkerInput>, Arc<Mutex<NetStats>>) {
        let setup = Setup::from(Params::new(1, 0, 1, 0).unwrap());
        let protocol = ProtocolConfig { timer_micros: 1_000, ..ProtocolConfig::default() };
        let session = setup.make_writer_session(
            RegisterId(0),
            protocol,
            SessionConfig::with_deadline(deadline_micros),
        );
        let pid = session.id();
        let key = (RegisterId(0), 0u32);
        let mut sessions = BTreeMap::new();
        sessions.insert(key, PolledSlot::new(session));
        let mut by_pid = BTreeMap::new();
        by_pid.insert(pid, key);
        let (input_tx, input_rx) = channel::<WorkerInput>();
        // The router receiver drops immediately: this worker's sends go
        // nowhere by design (sends ignore router errors).
        let (router_tx, _router_rx) = channel::<Envelope>();
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let worker = PolledWorker {
            sessions,
            by_pid,
            input: input_rx,
            router: router_tx,
            history: Arc::new(Mutex::new(History::new())),
            stats: Arc::clone(&stats),
            epoch: Instant::now(),
            tracer: Arc::new(lucky_trace::Tracer::new(lucky_trace::TraceConfig::disabled())),
        };
        (worker, input_tx, stats)
    }

    #[test]
    fn sabotaged_listener_degrades_instead_of_panicking() {
        // `set_nonblocking` on the listener fails with EBADF: the
        // worker must absorb it, not `.expect()` it and die.
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let tracer = lucky_trace::Tracer::new(lucky_trace::TraceConfig::disabled());
        let io = SocketIo::new(unusable_listener(), &stats, &tracer);
        assert!(io.listener().is_none(), "unusable listener is abandoned, not kept blocking");
        assert!(io.conns.is_empty());
        assert_eq!(stats.lock().io_errors, 1, "the degradation is counted");
    }

    #[test]
    fn worker_with_degraded_listener_stays_alive_and_times_ops_out() {
        // A worker whose listener was abandoned at setup keeps running:
        // the submitted op can never receive acks, so it fails with
        // TimedOut at its deadline — and the worker then exits cleanly
        // when stopped, instead of having panicked.
        let (worker, input, stats) = one_session_worker(50_000);
        let reactor =
            Reactor::new(unusable_listener(), &stats, &worker.tracer, Arc::new(AtomicU64::new(0)))
                .expect("epoll and eventfd are available");
        assert_eq!(stats.lock().io_errors, 1);
        let wake = reactor.waker();
        let handle = std::thread::spawn(move || worker.run(Wait::Epoll(reactor)));
        let (reply, rx) = channel();
        input
            .send(WorkerInput::Job(Job {
                slot: (RegisterId(0), 0),
                op: Op::Write(lucky_types::Value::from_u64(1)),
                reply,
                notify: None,
            }))
            .unwrap();
        wake.wake();
        let result = rx.recv_timeout(Duration::from_secs(5)).expect("worker still answers");
        assert_eq!(result.unwrap_err(), NetError::TimedOut);
        input.send(WorkerInput::Stop).unwrap();
        wake.wake();
        handle.join().expect("worker exits cleanly, no panic");
    }
}
