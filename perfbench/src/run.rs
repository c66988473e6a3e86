//! One benchmark run: stand the system up, warm it, measure, replay,
//! check, and reduce everything to the declared metrics.

use crate::layers::{per_layer, Snapshots, Traced};
use crate::load::{self, ClientLog, IngestLog, OpCounts, Phase};
use crate::metrics::Values;
use crate::replay::{replay, Replay};
use crate::stats::{median, percentile};
use crate::system::System;
use crate::workload::{Corpus, Spec, ROUNDS};
use qcluster_bench::{semantic_gap_dataset, Scale};
use qcluster_eval::Dataset;
use qcluster_loadgen::{offline_baseline, IngestStream, SessionPlan};
use qcluster_net::{Client, ClientConfig};
use qcluster_service::{MetricsSnapshot, Request, Response, Service, ServiceConfig, StoreConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Largest allowed gap between served and offline precision.
const PRECISION_EPSILON: f64 = 0.05;
/// Consecutive groups of rounds `rounds_per_s` takes the median over.
const RATE_GROUPS: usize = 15;
/// Salt deriving the warm-up plan's seed from the run's seed.
const WARMUP_SALT: u64 = 0x5741_524d;
/// Ingested vectors re-timed on a scratch durable service.
#[cfg(not(test))]
const STORE_PROBE: usize = 200;
#[cfg(test)]
const STORE_PROBE: usize = 8;
/// How often the resident set is sampled for `peak_rss_mb`.
const RSS_EVERY: Duration = Duration::from_millis(10);

/// Everything a run reports.
pub struct RunOutput {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors and degraded answers).
    pub failed: u64,
    /// The run's metrics.
    pub values: Values,
    /// Per-op counts, for the report.
    pub ops: OpCounts,
    /// Sample counts behind the percentiles, and check summaries.
    pub notes: Vec<String>,
}

/// One measured stretch of load.
struct Measured {
    clients: Vec<ClientLog>,
    ingest: IngestLog,
    start: Instant,
    wall: Duration,
}

impl Measured {
    /// Median of the completion rate over [`RATE_GROUPS`] consecutive
    /// groups of rounds, so a burst of stolen CPU skews one group, not
    /// the rate; the plain mean when there are too few rounds to group.
    fn rounds_per_s(&self) -> f64 {
        let mut done: Vec<Instant> = self
            .clients
            .iter()
            .flat_map(|c| c.round_done.iter().copied())
            .collect();
        done.sort_unstable();
        if done.len() < 2 * RATE_GROUPS {
            return done.len() as f64 / self.wall.as_secs_f64();
        }
        let mut edges = vec![(0, self.start)];
        edges.extend((1..=RATE_GROUPS).map(|g| {
            let i = g * done.len() / RATE_GROUPS;
            (i, done[i - 1])
        }));
        let rates: Vec<f64> = edges
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) as f64 / (w[1].1 - w[0].1).as_secs_f64())
            .collect();
        median(&rates)
    }

    fn ops(&self) -> OpCounts {
        let mut ops = self.ingest.ops.clone();
        for c in &self.clients {
            ops.add(&c.ops);
        }
        ops
    }
}

/// Everything a run holds fixed while it measures.
struct Ctx<'a> {
    spec: &'a Spec,
    seed: u64,
    out: &'a Path,
    system: &'a System,
    corpus: &'a Corpus,
    quick: &'a Dataset,
    plans: &'a [Vec<SessionPlan>],
    epoch: Instant,
}

impl<'a> Ctx<'a> {
    /// A phase over the measured plans, to be timed by [`Ctx::measure`].
    fn phase(&self, start: Vec<usize>, record: usize, traced: bool) -> Phase<'a> {
        Phase {
            system: self.system,
            corpus: self.corpus,
            spec: self.spec,
            plans: self.plans,
            start,
            max_sessions: usize::MAX,
            deadline: None,
            record,
            traced,
            epoch: self.epoch,
        }
    }

    /// Runs `phase` and the ingest generator side by side for
    /// `seconds`.
    fn measure(
        &self,
        mut phase: Phase<'_>,
        seconds: f64,
        stream: &mut IngestStream<'_>,
    ) -> Result<Measured, String> {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds);
        phase.deadline = Some(deadline);
        let traced = phase.traced;
        let (clients, ingest) = std::thread::scope(|scope| {
            let ingest = (self.spec.ingest_per_s > 0).then(|| {
                scope.spawn(|| {
                    load::run_ingest(self.system, self.spec, stream, deadline, traced, self.epoch)
                })
            });
            let clients = load::run_clients(&phase);
            let ingest = ingest.map_or(Ok(IngestLog::default()), |h| {
                h.join()
                    .map_err(|_| "ingest thread panicked".to_string())
                    .and_then(|r| r)
            });
            (clients, ingest)
        });
        let clients = clients?;
        let finished = clients
            .iter()
            .filter_map(|c| c.finished)
            .max()
            .unwrap_or_else(Instant::now);
        Ok(Measured {
            clients,
            ingest: ingest?,
            start: t0,
            wall: finished - t0,
        })
    }
}

fn stats_over_tcp(addr: std::net::SocketAddr) -> Result<MetricsSnapshot, String> {
    let mut client = Client::connect(addr, ClientConfig::default())
        .map_err(|e| format!("stats connect: {e}"))?;
    match client
        .call(&Request::Stats)
        .map_err(|e| format!("stats: {e}"))?
    {
        Response::Stats(snapshot) => Ok(*snapshot),
        other => Err(format!("unexpected Stats answer: {other:?}")),
    }
}

fn snapshots(system: &System) -> Result<Snapshots, String> {
    let service = match &system.router {
        Some(router) => router.stats().map_err(|e| format!("router stats: {e}"))?,
        None => stats_over_tcp(system.nodes[0].addr)?,
    };
    Ok(Snapshots {
        service,
        store: system
            .ingest_leader_addr()
            .map(stats_over_tcp)
            .transpose()?,
        cluster: system.router.as_ref().map(|r| r.cluster_gauges()),
    })
}

/// Every acked ingest must come back as its own nearest neighbour.
fn check_acked(system: &System, acked: &[(usize, Vec<f64>)]) -> Result<(), String> {
    if acked.is_empty() {
        return Err("the ingest stream acked nothing".into());
    }
    let mut conn = load::Conn::open(system)?;
    let session = match conn.call(Request::CreateSession { engine: None })? {
        Response::SessionCreated { session } => session,
        other => return Err(format!("probe session: {other:?}")),
    };
    let mut missing = Vec::new();
    for (id, vector) in acked {
        let found = match conn.call(Request::Query {
            session,
            k: 1,
            vector: Some(vector.clone()),
            deadline_ms: None,
        })? {
            Response::Neighbors { neighbors, .. } => neighbors.first().map(|n| n.id),
            _ => None,
        };
        if found != Some(*id) {
            missing.push(*id);
        }
    }
    let _ = conn.call(Request::CloseSession { session });
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} acked ingests not found by a self-query, e.g. {:?}",
            missing.len(),
            acked.len(),
            &missing[..missing.len().min(5)]
        ))
    }
}

/// Served precision per iteration over each client's leading
/// `check` sessions, against `offline_baseline` of the same plan.
fn check_precision(
    spec: &Spec,
    seed: u64,
    corpus: &Corpus,
    quick: &Dataset,
    clients: &[ClientLog],
) -> Result<String, String> {
    let offline = offline_baseline(quick, &load::soak_config(spec, seed, spec.check_sessions))?;
    let mut served = [(0u64, 0.0f64); ROUNDS + 1];
    for session in clients.iter().flat_map(|c| &c.sessions) {
        for (i, step) in session.steps.iter().enumerate() {
            let ids: Vec<usize> = step.served.iter().map(|n| n.id).collect();
            served[i].0 += 1;
            served[i].1 += corpus.precision(session.query_image, &ids, spec.k);
        }
    }
    let mut line = Vec::new();
    for (i, ((n, sum), off)) in served.iter().zip(&offline).enumerate() {
        let p = sum / *n as f64;
        if *n != off.sessions || (p - off.mean_precision).abs() > PRECISION_EPSILON {
            return Err(format!(
                "iteration {i}: served precision {p:.4} over {n} sessions, offline {:.4} over {}",
                off.mean_precision, off.sessions
            ));
        }
        line.push(format!("{p:.4}/{:.4}", off.mean_precision));
    }
    Ok(line.join(" "))
}

/// Every recorded check session must have run to completion.
fn check_complete(clients: &[ClientLog], want: usize) -> Result<(), String> {
    for (c, log) in clients.iter().enumerate() {
        let complete = log
            .sessions
            .iter()
            .filter(|s| s.steps.len() == ROUNDS + 1)
            .count();
        if complete < want {
            return Err(format!(
                "client {c} completed {complete} of the {want} sessions checked"
            ));
        }
    }
    Ok(())
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings: every wall-clock metric degrades with it.
fn steal_note(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> String {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => format!(
            "host CPU steal while measuring: {:.1}%",
            100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
        ),
        _ => "host CPU steal while measuring: unknown".to_string(),
    }
}

/// The process's resident set now, MB, from `/proc/self/status`.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `body` while a thread samples the resident set every
/// [`RSS_EVERY`]; returns what `body` returned and the largest sample.
fn with_peak_rss<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_mb();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_EVERY);
                peak = peak.max(rss_mb());
            }
            peak
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("the RSS sampler does not panic"))
    })
}

/// Hands the heap pages freed with the input rows back to the kernel,
/// so the resident set sampled afterwards is the system's own.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers; it only
        // returns free heap memory to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn all(clients: &[ClientLog], f: impl Fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
    clients.iter().flat_map(|c| f(c).iter().copied()).collect()
}

/// Runs one workload for one seed. `out` receives the span file and
/// the durable state (removed at the end).
///
/// # Errors
///
/// Set-up failures, a percentile without enough samples, or I/O
/// errors writing spans. Failed output checks are not errors: they
/// come back as `correct: false`.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<RunOutput, String> {
    let epoch = Instant::now();
    let quick = semantic_gap_dataset(Scale::Quick);
    let (corpus, points) = Corpus::build(spec.corpus, &quick);
    let plans = load::plans(spec, seed, corpus.len());
    let warm_plans = load::plans(spec, seed ^ WARMUP_SALT, corpus.len());
    let work = out.join(format!("work-{}-{}", spec.name, std::process::id()));

    let mut setup = Vec::new();
    let mut system: Option<System> = None;
    for rep in 0..spec.setup_reps.max(1) {
        if let Some(previous) = system.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        let started = System::start(spec, &points, &work.join(rep.to_string()))?;
        setup.push(t.elapsed().as_secs_f64());
        system = Some(started);
    }
    let system = system.expect("at least one set-up");
    // The system keeps its own copy; example vectors are read back
    // from it, so the peak below is the system's, not the inputs'.
    drop(points);
    release_free_heap();
    let ctx = Ctx {
        spec,
        seed,
        out,
        system: &system,
        corpus: &corpus,
        quick: &quick,
        plans: &plans,
        epoch,
    };
    let (result, peak_rss) = with_peak_rss(|| drive(&ctx, &warm_plans, seconds, traced));
    system.shutdown();
    let _ = std::fs::remove_dir_all(&work);
    let mut output = result?;
    if !traced {
        output.values.insert("setup_s", median(&setup));
        output.values.insert("peak_rss_mb", peak_rss);
    }
    output.notes.push(format!("setup_s samples: {setup:?}"));
    Ok(output)
}

/// Warms the system, measures, replays and checks; `run` owns set-up
/// and teardown around it.
fn drive(
    ctx: &Ctx<'_>,
    warm_plans: &[Vec<SessionPlan>],
    seconds: f64,
    traced: bool,
) -> Result<RunOutput, String> {
    let Ctx {
        spec,
        seed,
        out,
        system,
        corpus,
        quick,
        ..
    } = *ctx;
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    let mut ops = OpCounts::default();

    // Warm-up: caches fill and lazy set-up finishes before timing.
    let warm = load::run_clients(&Phase {
        plans: warm_plans,
        max_sessions: spec.warmup_sessions,
        ..ctx.phase(vec![0; spec.clients], 0, false)
    })?;
    for c in &warm {
        ops.add(&c.ops);
    }

    let mut stream = IngestStream::new(seed, quick);
    let untraced_seconds = if traced { seconds / 2.0 } else { seconds };
    let ticks = cpu_ticks();
    let first = ctx.measure(
        ctx.phase(vec![0; spec.clients], spec.check_sessions, false),
        untraced_seconds,
        &mut stream,
    )?;
    notes.push(steal_note(ticks, cpu_ticks()));
    ops.add(&first.ops());
    let mut acked: Vec<(usize, Vec<f64>)> = first.ingest.acked.clone();

    let mut values = Values::new();
    if let Err(e) = check_complete(&first.clients, spec.check_sessions) {
        failures.push(e);
    }
    let mut checked = replay(
        &first
            .clients
            .iter()
            .flat_map(|c| c.sessions.clone())
            .collect::<Vec<_>>(),
        system,
        spec,
        &acked.iter().cloned().collect(),
        ctx.epoch,
        false,
    );

    if traced {
        let before = snapshots(system)?;
        let start = first.clients.iter().map(|c| c.sessions_run).collect();
        let record = spec.traced_sessions.unwrap_or(usize::MAX);
        let second = ctx.measure(ctx.phase(start, record, true), seconds / 2.0, &mut stream)?;
        let after = snapshots(system)?;
        ops.add(&second.ops());
        acked.extend(second.ingest.acked.iter().cloned());
        let ingested: HashMap<usize, Vec<f64>> = acked.iter().cloned().collect();
        let traced_sessions: Vec<_> = second
            .clients
            .iter()
            .flat_map(|c| c.sessions.clone())
            .collect();
        let replayed = replay(&traced_sessions, system, spec, &ingested, ctx.epoch, true);
        let store_ingest_ns = store_probe(spec, quick, &second.ingest, out)?;
        values = per_layer(&Traced {
            timings: &replayed.timings,
            clients: &second.clients,
            ingest: &second.ingest,
            before: &before,
            after: &after,
            store_ingest_ns: &store_ingest_ns,
            rounds_per_s: (first.rounds_per_s(), second.rounds_per_s()),
            router: system.router.is_some(),
            ingesting: spec.ingest_per_s > 0,
        })?;
        let mut spans: Vec<_> = second
            .clients
            .iter()
            .flat_map(|c| c.spans.iter().cloned())
            .chain(second.ingest.spans.iter().cloned())
            .chain(replayed.spans.iter().cloned())
            .collect();
        spans.sort_by_key(|s| s.start_ns);
        let path = out.join(format!("spans-{}-seed{seed}.jsonl", spec.name));
        crate::trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("wrote {} spans to {}", spans.len(), path.display()));
        merge_replay(&mut checked, replayed);
    } else {
        let rounds = all(&first.clients, |c| &c.round_ms);
        let firsts = all(&first.clients, |c| &c.first_query_ms);
        let first_p50 = percentile(&firsts, 50.0)?;
        let round_p50 = percentile(&rounds, 50.0)?;
        let round_p90 = percentile(&rounds, 90.0)?;
        notes.push(format!(
            "samples: first_query {} rounds {}",
            first_p50.samples, round_p50.samples
        ));
        // The p99 is too sensitive to the host to gate on (see
        // METRICS.md); it is reported here when it has its tail.
        notes.push(match percentile(&rounds, 99.0) {
            Ok(p) => format!("round p99: {} ms over {} samples", p.value, p.samples),
            Err(e) => format!("round p99: {e}"),
        });
        let last: (u64, f64) = first
            .clients
            .iter()
            .map(|c| c.precision[ROUNDS])
            .fold((0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        values.insert("first_query_p50_ms", first_p50.value);
        values.insert("round_p50_ms", round_p50.value);
        values.insert("round_p90_ms", round_p90.value);
        values.insert("rounds_per_s", first.rounds_per_s());
        values.insert("precision_last", last.1 / last.0.max(1) as f64);
    }

    notes.push(format!(
        "replayed and compared {} answers, {} mismatches",
        checked.checked,
        checked.mismatches.len()
    ));
    failures.extend(checked.mismatches.iter().take(5).cloned());
    if spec.precision_check {
        match check_precision(spec, seed, corpus, quick, &first.clients) {
            Ok(line) => notes.push(format!("precision served/offline per iteration: {line}")),
            Err(e) => failures.push(format!("precision: {e}")),
        }
    }
    if spec.ingest_per_s > 0 {
        match check_acked(system, &acked) {
            Ok(()) => notes.push(format!(
                "all {} acked ingests found by self-query",
                acked.len()
            )),
            Err(e) => failures.push(e),
        }
    }
    if traced {
        // The error rate is 0 when healthy, so it cannot carry a
        // relative bound: it is a per-layer metric, and untraced runs
        // carry it as `failed / attempted`.
        values.insert(
            "error_rate",
            ops.total_failed() as f64 / ops.total_attempted().max(1) as f64,
        );
    }
    notes.extend(failures.iter().map(|f| format!("CHECK FAILED: {f}")));
    Ok(RunOutput {
        correct: failures.is_empty(),
        attempted: ops.total_attempted(),
        failed: ops.total_failed(),
        values,
        ops,
        notes,
    })
}

fn merge_replay(into: &mut Replay, other: Replay) {
    into.checked += other.checked;
    into.mismatches.extend(other.mismatches);
}

/// Times `Service::ingest` on a scratch durable service over the same
/// corpus, fed the leading vectors of the traced ingest stream.
fn store_probe(
    spec: &Spec,
    quick: &Dataset,
    ingest: &IngestLog,
    out: &Path,
) -> Result<Vec<u64>, String> {
    if ingest.acked.is_empty() {
        return Ok(Vec::new());
    }
    let dir = out.join(format!("work-{}-{}-probe", spec.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let service = Service::open_durable(
        &dir,
        quick.vectors(),
        ServiceConfig::default(),
        StoreConfig::default(),
    )
    .map_err(|e| format!("probe open_durable: {e}"))?;
    let mut times = Vec::new();
    for (_, vector) in ingest.acked.iter().take(STORE_PROBE) {
        let t = Instant::now();
        service
            .ingest(vector.clone())
            .map_err(|e| format!("probe ingest: {e}"))?;
        times.push(t.elapsed().as_nanos() as u64);
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::result_line;
    use crate::workload::WORKLOADS;

    fn smoke(name: &str, traced: bool, seconds: f64) {
        let spec = Spec::tiny(name).unwrap();
        let out = std::env::temp_dir().join(format!(
            "perfbench-smoke-{name}-{}-{}",
            traced as u8,
            std::process::id()
        ));
        let run = run(&spec, 7, seconds, traced, &out).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(run.correct, "{name}: {:?}", run.notes);
        assert!(run.attempted > 0);
        assert_eq!(run.failed, 0, "{name}: {:?}", run.notes);
        // Every metric the run measured is declared, and every
        // declared metric was measured.
        result_line(traced, run.correct, run.attempted, run.failed, &run.values)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if traced {
            let spans = out.join(format!("spans-{name}-seed7.jsonl"));
            assert!(std::fs::metadata(&spans).is_ok_and(|m| m.len() > 0));
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn tiny_workloads_run_untraced_and_traced() {
        for name in WORKLOADS {
            smoke(name, false, 3.0);
            // The traced half must give cluster_rw's ingest p90 ten
            // samples beyond it: 3 s at 50/s.
            smoke(name, true, 6.0);
        }
    }
}
