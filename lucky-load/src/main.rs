//! lucky-load: an end-to-end benchmark of lucky, loaded and degraded
//! operations on a `NetStore` over loopback TCP, reactor driver, zero
//! injected delay.
//!
//! ```sh
//! cargo run --release --manifest-path lucky-load/Cargo.toml -- \
//!     --workload lucky_seq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half the
//! window untraced and half traced, and prints the per-layer metrics.
//! The last line of standard output is the JSON result. See README.md
//! for the workloads, the metrics and which layer should move which.

mod gen;
mod load;
mod pin;
mod stats;
mod wire;

use gen::{open_schedule, Kind, OpenLoad, Values};
use load::{closed_loop, open_loop, LoadRun, OpFut, Settled};
use lucky_core::byz::ForgeValue;
use lucky_net::exec::run_all;
use lucky_net::{Driver, NetConfig, NetOutcome, NetRegisterHandle, NetStats, NetStore, Transport};
use lucky_trace::{HistogramSnapshot, TraceConfig};
use lucky_types::{Params, RegisterId, Seq, TsVal, Value};
use stats::{median, percentile, ratio, Metrics};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: lucky-load --workload <lucky_seq|open_zipf|degraded_durable> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// `open_zipf`'s traffic: Poisson arrivals, zipf keys, 90% reads.
const OPEN: OpenLoad =
    OpenLoad { rate: 1000.0, registers: 1024, readers: 2, zipf_s: 1.0, read_share: 0.9 };

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    LuckySeq,
    OpenZipf,
    DegradedDurable,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        [Workload::LuckySeq, Workload::OpenZipf, Workload::DegradedDurable]
            .into_iter()
            .find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LuckySeq => "lucky_seq",
            Workload::OpenZipf => "open_zipf",
            Workload::DegradedDurable => "degraded_durable",
        }
    }

    fn params(self) -> Params {
        let (t, b) = if self == Workload::DegradedDurable { (2, 1) } else { (1, 0) };
        Params::new(t, b, 1, 0).expect("valid workload parameters")
    }

    fn registers(self) -> usize {
        if self == Workload::OpenZipf {
            OPEN.registers
        } else {
            1
        }
    }

    fn readers(self) -> usize {
        if self == Workload::OpenZipf {
            OPEN.readers.into()
        } else {
            1
        }
    }

    fn value_bytes(self) -> usize {
        if self == Workload::DegradedDurable {
            1024
        } else {
            8
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().ok().filter(|s| *s >= 1).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Zero injected delay: the round-1 timer is the library's own margin.
fn net_config(seed: u64) -> NetConfig {
    NetConfig { seed, ..NetConfig::for_latency(Duration::ZERO, Duration::ZERO) }
}

/// A built and warmed store with every register handle taken.
struct Bench {
    store: NetStore,
    handles: Vec<NetRegisterHandle>,
    values: Values,
    dir: Option<PathBuf>,
}

impl Bench {
    /// Build the workload's store and warm it: connections established
    /// and every register written and read once. Returns the set-up time.
    fn setup(
        w: Workload,
        seed: u64,
        trace: bool,
        work: &Path,
        k: usize,
    ) -> Result<(Bench, Duration), String> {
        let dir = (w == Workload::DegradedDurable).then(|| work.join(format!("durable-{k}")));
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let start = Instant::now();
        let mut builder = NetStore::builder(w.params(), net_config(seed))
            .registers(w.registers())
            .readers_per_register(w.readers())
            .transport(Transport::Tcp)
            .driver(Driver::Reactor)
            .trace(if trace { TraceConfig::enabled() } else { TraceConfig::disabled() });
        if let Some(d) = &dir {
            // S = 6 with t = 2, b = 1: one server crashed, one forging a
            // value with a far-future timestamp on every READ.
            let forged = TsVal::new(Seq(1 << 40), Value::from_u64(u64::MAX));
            builder = builder.crashed(5).byzantine(4, Box::new(ForgeValue::new(forged))).durable(d);
        }
        let mut store = builder.build();
        let handles = (0..w.registers())
            .map(|r| store.register(RegisterId(r as u32)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("taking handles: {e}"))?;
        let mut values = Values::new(seed, w.value_bytes());
        let writes: Vec<_> = handles.iter().map(|h| h.write_future(values.next())).collect();
        for out in run_all(writes) {
            out.map_err(|e| format!("warm-up write: {e}"))?;
        }
        let reads: Vec<_> = handles.iter().map(|h| h.read_future(0)).collect();
        for out in run_all(reads) {
            out.map_err(|e| format!("warm-up read: {e}"))?;
        }
        Ok((Bench { store, handles, values, dir }, start.elapsed()))
    }

    fn teardown(mut self) {
        self.handles.clear();
        self.store.shutdown();
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

fn settled(out: NetOutcome) -> Settled {
    Settled { elapsed: out.elapsed, rounds: out.rounds, fast: out.fast }
}

/// One measured window and what the store said around it.
struct Measured {
    run: LoadRun,
    /// Checker verdict and the closed loop's read-your-write checks.
    problems: Vec<String>,
    stats: (NetStats, NetStats),
    persist: (HistogramSnapshot, HistogramSnapshot),
}

fn measure(w: Workload, bench: &mut Bench, seed: u64, window: Duration) -> Measured {
    let before = bench.store.stats();
    let persist_before = bench.store.trace().persist_latency;
    let mut problems = Vec::new();
    let run = if w == Workload::OpenZipf {
        let schedule = open_schedule(seed, &OPEN, window);
        // Every op begun by the last due time has settled or hit its
        // deadline well within two deadlines.
        let drain = 2 * net_config(seed).op_deadline();
        let Bench { handles, values, .. } = bench;
        open_loop(&schedule, drain, |p| -> OpFut {
            let h = &handles[p.reg];
            let fut = match p.kind {
                Kind::Write => h.write_future(values.next()),
                Kind::Read(j) => h.read_future(j),
            };
            Box::pin(async move { fut.await.ok().map(settled) })
        })
    } else {
        // One client alternating write and read on register 0: with no
        // concurrency every read must return the value just written.
        let Bench { handles, values, .. } = bench;
        let h = &handles[0];
        let mut last = None;
        let mut failures = 0;
        closed_loop(window, |i| {
            let write = i % 2 == 0;
            let out = if write {
                let v = values.next();
                last = Some(v.clone());
                h.write(v)
            } else {
                h.read(0)
            };
            match out {
                Ok(out) => {
                    if !write && failures == 0 && Some(&out.value) != last.as_ref() {
                        problems
                            .push(format!("read {i} returned a value other than the last write"));
                    }
                    (write, Some(settled(out)))
                }
                Err(_) => {
                    failures += 1;
                    (write, None)
                }
            }
        })
    };
    let after = bench.store.stats();
    let persist_after = bench.store.trace().persist_latency;
    if let Err(v) = bench.store.check_atomicity() {
        problems.push(format!("atomicity violated: {v:?}"));
    }
    Measured { run, problems, stats: (before, after), persist: (persist_before, persist_after) }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn latencies(run: &LoadRun, write: Option<bool>) -> Vec<f64> {
    run.samples
        .iter()
        .filter(|s| write.is_none_or(|w| s.write == w))
        .map(|s| us(s.latency()))
        .collect()
}

fn end_to_end(run: &LoadRun, setup_s: f64) -> Metrics {
    let done = run.samples.len() as f64;
    let mut m = Metrics::default();
    m.push("write_p50_us", median(&mut latencies(run, Some(true))), "us");
    m.push("read_p50_us", median(&mut latencies(run, Some(false))), "us");
    m.push("ops_per_s", ratio(done, run.window.as_secs_f64()), "ops/s");
    m.push(
        "fast_ratio",
        ratio(run.samples.iter().filter(|s| s.settled.fast).count() as f64, done),
        "ratio",
    );
    m.push("settled_ratio", ratio(done, run.attempted as f64), "ratio");
    m.push("setup_s", setup_s, "s");
    m
}

/// One benchmark-side span: the root `op` (intended send → observed
/// settle) and its two children. The store reports only the session's
/// duration, so `core.session` is placed to end at the observed settle
/// and `net.handoff` covers the rest of the op: job queue, worker wake
/// and the reply hop.
struct Span {
    op: usize,
    name: &'static str,
    start: Duration,
    dur: Duration,
    write: bool,
    rounds: u32,
    fast: bool,
}

fn spans(run: &LoadRun) -> Vec<Span> {
    let Some(epoch) = run.samples.iter().map(|s| s.start).min() else { return Vec::new() };
    let mut out = Vec::with_capacity(3 * run.samples.len());
    for (op, s) in run.samples.iter().enumerate() {
        let start = s.start - epoch;
        let total = s.latency();
        let session = s.settled.elapsed.min(total);
        let span = |name, start, dur| Span {
            op,
            name,
            start,
            dur,
            write: s.write,
            rounds: s.settled.rounds,
            fast: s.settled.fast,
        };
        out.push(span("op", start, total));
        out.push(span("net.handoff", start, total - session));
        out.push(span("core.session", start + total - session, session));
    }
    out
}

fn write_spans(path: &Path, spans: &[Span], stats: &(NetStats, NetStats)) -> std::io::Result<()> {
    let mut text = String::new();
    for s in spans {
        let parent = if s.name == "op" { "null".to_string() } else { s.op.to_string() };
        let _ = writeln!(
            text,
            "{{\"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.3}, \"dur_us\": {:.3}, \
             \"write\": {}, \"rounds\": {}, \"fast\": {}}}",
            s.op, s.name, us(s.start), us(s.dur), s.write, s.rounds, s.fast
        );
    }
    for (at, st) in [("before", &stats.0), ("after", &stats.1)] {
        let _ = writeln!(text, "{{\"net_stats\": \"{at}\", \"summary\": \"{st}\"}}");
    }
    std::fs::write(path, text)
}

fn per_layer(
    traced: &Measured,
    untraced_write_p50: f64,
    wire: wire::WireTimings,
    timer: Duration,
    spans: &[Span],
) -> Metrics {
    let run = &traced.run;
    let done = run.samples.len() as f64;
    let (s0, s1) = &traced.stats;
    let delta = |f: fn(&NetStats) -> u64| (f(s1) - f(s0)) as f64;
    let per_op = |f: fn(&NetStats) -> u64| ratio(delta(f), done);
    let durs = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| us(s.dur)).collect()
    };
    let sessions: Vec<&Span> = spans.iter().filter(|s| s.name == "core.session").collect();
    let mean_rounds = |write: bool| {
        let r: Vec<f64> =
            sessions.iter().filter(|s| s.write == write).map(|s| f64::from(s.rounds)).collect();
        ratio(r.iter().sum(), r.len() as f64)
    };
    let one_round: Vec<&&Span> = sessions.iter().filter(|s| s.rounds == 1).collect();
    let timer_wait: f64 = one_round.iter().map(|s| us(s.dur.min(timer))).sum();
    let one_round_time: f64 = one_round.iter().map(|s| us(s.dur)).sum();
    let mut persist = traced.persist.1;
    for (c, before) in persist.counts.iter_mut().zip(traced.persist.0.counts) {
        *c -= before;
    }
    let mut m = Metrics::default();
    m.push("op.p99_us", percentile(&mut durs("op"), 0.99), "us");
    m.push("core.session_p50_us", median(&mut durs("core.session")), "us");
    m.push("core.session_p99_us", percentile(&mut durs("core.session"), 0.99), "us");
    m.push("core.timer_wait_share", ratio(timer_wait, one_round_time), "ratio");
    m.push("core.rounds_per_read", mean_rounds(false), "rounds");
    m.push("core.rounds_per_write", mean_rounds(true), "rounds");
    m.push("net.handoff_p50_us", median(&mut durs("net.handoff")), "us");
    m.push("net.handoff_p99_us", percentile(&mut durs("net.handoff"), 0.99), "us");
    m.push("net.msgs_per_op", per_op(|s| s.messages), "msgs/op");
    m.push("net.wire_bytes_per_op", per_op(|s| s.wire_bytes), "B/op");
    m.push("net.reactor_wakeups_per_op", per_op(|s| s.reactor_wakeups), "wakeups/op");
    m.push("net.dropped_per_op", per_op(|s| s.dropped), "msgs/op");
    m.push("net.io_errors", delta(|s| s.io_errors + s.decode_errors), "count");
    m.push("wire.encode_ns", wire.encode_ns, "ns");
    m.push("wire.decode_ns", wire.decode_ns, "ns");
    m.push("wire.framing_overhead", ratio(delta(|s| s.wire_bytes), delta(|s| s.bytes)), "ratio");
    m.push("log.persist_p50_us", persist.p50() as f64, "us");
    m.push("log.persist_p99_us", persist.p99() as f64, "us");
    m.push("log.persists_per_op", ratio(persist.count() as f64, done), "persists/op");
    m.push("log.bytes_per_op", per_op(|s| s.log_bytes), "B/op");
    m.push(
        "trace.overhead_p50",
        ratio(median(&mut latencies(run, Some(true))), untraced_write_p50),
        "ratio",
    );
    let mut late: Vec<f64> = run.lateness.iter().map(|d| us(*d)).collect();
    m.push("gen.late_p99_us", percentile(&mut late, 0.99), "us");
    m
}

fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("lucky-load/target"), PathBuf::from)
        .join("lucky-load-run")
}

/// Run the benchmark; returns the report text, the result line and
/// whether every check passed.
fn run(args: &Args) -> Result<(String, String, bool), String> {
    let w = args.workload;
    let work = work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let window = Duration::from_secs(args.seconds);
    let mut report = format!(
        "lucky-load {} seed={} seconds={} trace={}\n",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = match pin::pin_to_one_cpu() {
        Ok(cpu) => writeln!(report, "pinned to CPU {cpu}"),
        Err(e) => writeln!(report, "not pinned to one CPU: {e}"),
    };
    let mut problems = Vec::new();
    let untraced = |setups: usize, window: Duration| -> Result<(Measured, Vec<f64>), String> {
        let mut times = Vec::new();
        let mut kept = None;
        for k in 0..setups {
            let (bench, t) = Bench::setup(w, args.seed, false, &work, k)?;
            times.push(t.as_secs_f64());
            if let Some(old) = kept.replace(bench) {
                old.teardown();
            }
        }
        let mut bench = kept.expect("at least one set-up");
        let m = measure(w, &mut bench, args.seed, window);
        bench.teardown();
        Ok((m, times))
    };
    let mut extra = Metrics::default();
    let (metrics, attempted, failed) = if args.trace {
        // Half the window untraced, half traced, so a traced run takes
        // as long as an untraced one.
        let (plain, _) = untraced(1, window / 2)?;
        let (mut bench, _) = Bench::setup(w, args.seed, true, &work, 1)?;
        let traced = measure(w, &mut bench, args.seed, window / 2);
        bench.teardown();
        let timings = wire::replay(Values::new(args.seed, w.value_bytes()).next())?;
        let spans = spans(&traced.run);
        let path = work.join(format!("spans-{}.jsonl", w.name()));
        write_spans(&path, &spans, &traced.stats)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(report, "spans and NetStats snapshots: {}", path.display());
        let plain_write_p50 = median(&mut latencies(&plain.run, Some(true)));
        let metrics =
            per_layer(&traced, plain_write_p50, timings, net_config(args.seed).timer, &spans);
        let (attempted, failed) =
            (plain.run.attempted + traced.run.attempted, plain.run.failed + traced.run.failed);
        problems.extend(plain.problems);
        problems.extend(traced.problems);
        (metrics, attempted, failed)
    } else {
        let (m, mut setups) = untraced(SETUPS, window)?;
        let metrics = end_to_end(&m.run, median(&mut setups));
        // Printed, not in the result line: on the closed loops host
        // wake-up noise sets the tail (see README).
        extra.push("p99_us", percentile(&mut latencies(&m.run, None), 0.99), "us");
        extra.push("failed_ratio", ratio(m.run.failed as f64, m.run.attempted as f64), "ratio");
        problems.extend(m.problems);
        (metrics, m.run.attempted, m.run.failed)
    };
    report.push_str(&metrics.render_lines());
    report.push_str(&extra.render_lines());
    let _ = writeln!(
        report,
        "attempted {attempted}, failed {failed}, checker-clean {}",
        problems.is_empty()
    );
    for p in &problems {
        let _ = writeln!(report, "PROBLEM: {p}");
    }
    let correct = problems.is_empty();
    Ok((report, metrics.result_json(correct, attempted, failed), correct))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((report, result, correct)) => {
            print!("{report}");
            println!("{result}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("lucky-load: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(argv("--workload open_zipf --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::OpenZipf, 9, 10, true));
        assert!(parse_args(argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(argv("--workload lucky_seq --seed 1 --seconds 0")).is_err());
        assert!(parse_args(argv("--workload lucky_seq --seconds 1")).is_err());
    }

    #[test]
    fn workload_shapes_match_the_paper_bound() {
        // fw + fr <= t - b in both configurations: lucky ops are fast.
        assert_eq!(Workload::LuckySeq.params().server_count(), 3);
        assert_eq!(Workload::DegradedDurable.params().server_count(), 6);
    }
}
