//! The two load generators, both on the caller's single thread.
//!
//! The closed loop sends the next operation only after the previous one
//! settled; the open loop sends on the seeded schedule whatever the
//! system is doing, and times every operation from when it was *due*, so
//! a stall (in the system or in the generator) is charged to every
//! operation that was due during it.

use crate::gen::Planned;
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// What the store reported for a settled operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Settled {
    /// Session begin → settle, as the shard worker measured it.
    pub elapsed: Duration,
    pub rounds: u32,
    pub fast: bool,
}

/// One settled operation as the generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub write: bool,
    /// Intended send time (open loop) or call time (closed loop).
    pub start: Instant,
    /// When the generator learned of the settle.
    pub observed: Instant,
    pub settled: Settled,
}

impl Sample {
    pub fn latency(&self) -> Duration {
        self.observed - self.start
    }
}

/// Everything one measured window produced.
#[derive(Debug, Default)]
pub struct LoadRun {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Operations that returned an error or were unsettled at the drain bound.
    pub failed: u64,
    /// Per sent operation: how late the generator sent it.
    pub lateness: Vec<Duration>,
    /// First send (or due time) → last settle observed.
    pub window: Duration,
}

/// A submitted operation: resolves to `None` when the store reported an error.
pub type OpFut = Pin<Box<dyn Future<Output = Option<Settled>>>>;

/// Run `op(i)` for i = 0, 1, … back to back until `window` has passed.
/// `op` blocks until operation `i` settles and returns whether it was a
/// write and its outcome. Lateness is the generator's own gap between
/// observing one settle and calling the next operation.
pub fn closed_loop(
    window: Duration,
    mut op: impl FnMut(usize) -> (bool, Option<Settled>),
) -> LoadRun {
    let mut run = LoadRun::default();
    let begin = Instant::now();
    let mut prev = begin;
    while prev - begin < window {
        let start = Instant::now();
        run.lateness.push(start - prev);
        let (write, outcome) = op(run.attempted as usize);
        let observed = Instant::now();
        run.attempted += 1;
        match outcome {
            Some(settled) => run.samples.push(Sample { write, start, observed, settled }),
            None => run.failed += 1,
        }
        prev = observed;
    }
    run.window = prev - begin;
    run
}

/// Wakes the generator with the operation's index and the wake instant.
struct Notify {
    id: usize,
    tx: Sender<(usize, Instant)>,
}

impl Wake for Notify {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let _ = self.tx.send((self.id, Instant::now()));
    }
}

/// An operation in flight in the open loop.
struct InFlight {
    fut: OpFut,
    waker: Waker,
    write: bool,
    due: Instant,
}

/// Send every planned operation at its due time via `submit`, then wait
/// until `drain` after the last due time. An operation still unsettled
/// then counts as failed; the run never waits longer.
pub fn open_loop(
    schedule: &[Planned],
    drain: Duration,
    mut submit: impl FnMut(&Planned) -> OpFut,
) -> LoadRun {
    let (tx, rx) = channel::<(usize, Instant)>();
    let mut run = LoadRun::default();
    let mut pending: HashMap<usize, InFlight> = HashMap::new();
    let begin = Instant::now();
    let mut last_observed = begin;
    let mut poll =
        |id: usize, at: Instant, pending: &mut HashMap<usize, InFlight>, run: &mut LoadRun| {
            let Some(op) = pending.get_mut(&id) else { return };
            let mut cx = Context::from_waker(&op.waker);
            if let Poll::Ready(outcome) = op.fut.as_mut().poll(&mut cx) {
                let op = pending.remove(&id).expect("present above");
                match outcome {
                    Some(settled) => {
                        run.samples.push(Sample {
                            write: op.write,
                            start: op.due,
                            observed: at,
                            settled,
                        });
                        last_observed = last_observed.max(at);
                    }
                    None => run.failed += 1,
                }
            }
        };
    for (id, planned) in schedule.iter().enumerate() {
        let due = begin + planned.due;
        while let Some(wait) = due.checked_duration_since(Instant::now()).filter(|d| !d.is_zero()) {
            if let Ok((done, at)) = rx.recv_timeout(wait) {
                poll(done, at, &mut pending, &mut run);
            }
        }
        let sent = Instant::now();
        run.lateness.push(sent - due);
        run.attempted += 1;
        let waker = Waker::from(Arc::new(Notify { id, tx: tx.clone() }));
        let write = planned.kind == crate::gen::Kind::Write;
        pending.insert(id, InFlight { fut: submit(planned), waker, write, due });
        poll(id, Instant::now(), &mut pending, &mut run);
    }
    let bound = begin + schedule.last().map_or(Duration::ZERO, |p| p.due) + drain;
    while !pending.is_empty() {
        let Some(wait) = bound.checked_duration_since(Instant::now()) else { break };
        if let Ok((done, at)) = rx.recv_timeout(wait) {
            poll(done, at, &mut pending, &mut run);
        }
    }
    run.failed += pending.len() as u64;
    run.window = last_observed - begin;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Kind;
    use std::future::{pending, ready};

    fn every_ms(n: usize) -> Vec<Planned> {
        (0..n)
            .map(|i| Planned { due: Duration::from_millis(i as u64), reg: 0, kind: Kind::Read(0) })
            .collect()
    }

    const DONE: Settled = Settled { elapsed: Duration::ZERO, rounds: 1, fast: true };

    #[test]
    fn generator_stall_is_charged_to_the_ops_due_during_it() {
        let schedule = every_ms(40);
        let stall = Duration::from_millis(20);
        let mut sent = 0;
        let run = open_loop(&schedule, Duration::from_millis(10), |_| {
            sent += 1;
            if sent == 10 {
                // The generator thread stalls while sending op 9 (due at 9 ms).
                std::thread::sleep(stall);
            }
            Box::pin(ready(Some(DONE)))
        });
        assert_eq!((run.attempted, run.failed, run.samples.len()), (40, 0, 40));
        let stall_end = run.samples[9].observed;
        for (i, s) in run.samples.iter().enumerate() {
            let due = Duration::from_millis(i as u64);
            if (10..29).contains(&i) {
                // Due during the stall: latency covers the rest of it.
                assert!(s.observed >= stall_end, "op {i} observed before the stall ended");
                assert!(
                    s.latency() >= Duration::from_millis(29) - due,
                    "op {i} (due {due:?}) was charged only {:?}",
                    s.latency()
                );
                assert!(run.lateness[i] > Duration::ZERO);
            }
        }
        // The stall is visible as generator lateness of the same size.
        let worst = run.lateness.iter().max().copied().unwrap_or_default();
        assert!(worst >= stall - Duration::from_millis(2), "worst lateness {worst:?}");
    }

    #[test]
    fn never_settling_op_is_failed_and_does_not_block_the_run() {
        let schedule = every_ms(5);
        let drain = Duration::from_millis(50);
        let t0 = Instant::now();
        let run = open_loop(&schedule, drain, |p| {
            if p.due == Duration::from_millis(2) {
                Box::pin(pending())
            } else {
                Box::pin(ready(Some(DONE)))
            }
        });
        assert!(t0.elapsed() < Duration::from_secs(1), "the drain bound ends the run");
        assert!(t0.elapsed() >= drain);
        assert_eq!((run.attempted, run.failed, run.samples.len()), (5, 1, 4));
    }

    #[test]
    fn errored_op_counts_as_failed() {
        let run = open_loop(&every_ms(3), Duration::from_millis(10), |p| {
            Box::pin(ready((p.due != Duration::from_millis(1)).then_some(DONE)))
        });
        assert_eq!((run.attempted, run.failed, run.samples.len()), (3, 1, 2));
    }

    #[test]
    fn closed_loop_runs_for_the_window() {
        let run = closed_loop(Duration::from_millis(20), |i| {
            std::thread::sleep(Duration::from_millis(1));
            (i % 2 == 0, (i != 3).then_some(DONE))
        });
        assert!(run.window >= Duration::from_millis(20));
        assert_eq!(run.attempted, run.samples.len() as u64 + 1);
        assert_eq!(run.lateness.len() as u64, run.attempted);
    }
}
