//! The serve workloads: an in-process `dcn_serve::Server` with the default
//! configuration, driven over one connection by [`crate::loadgen`].
//!
//! An untraced run warms up, then measures in rounds. Each round times a
//! share of the cold starts, then sends open-loop Poisson arrivals at the
//! workload's fixed rate (four fifths of the measured time over all
//! rounds), then keeps 32 requests in flight in a closed loop (the rest).
//! A traced run replaces the rounds with two fixed-rate passes, the second
//! with the telemetry plane on, and then replays the workload's inputs
//! through [`crate::ledger`]. Both check a sixteenth of the answers against
//! serial `try_classify_bounded`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcn_core::{BatchRequest, Dcn, DcnVerdict, VoteBudget};
use dcn_data::{synth_mnist, SynthConfig};
use dcn_obs::names as obs_names;
use dcn_serve::{encode_request, Client, Request, Response, Server, ServerConfig, WireMode};
use dcn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::host::memory_metrics;
use crate::ledger::{self, ReplaySet};
use crate::loadgen::{self, frame, PhaseLog};
use crate::prepare::{self, Adversarial, Prepared};
use crate::record::{Ledger, Metric, Record};
use crate::stats::{quantile, Summary};
use crate::{stream, Check, Outcome, Result, RunCtx, Scale, Workload};

/// Requests kept in flight by the capacity phase: below the shed mark
/// (48), so the phase measures service, not admission control.
const WINDOW: usize = 32;
/// Every this-many non-shed answers one is recomputed serially.
const VERIFY_EVERY: usize = 16;
/// Digits the warm-up and capacity phases cycle through.
const SPARE: usize = 2048;
/// Latencies per p99 sub-window: at least 10 samples lie beyond its p99.
const P99_WINDOW: usize = 1000;
/// Most p99 sub-windows.
const MAX_WINDOWS: usize = 10;
/// Rounds an untraced run is measured in.
const ROUNDS: usize = 4;
/// Request-id bases of the phases (ids are unique across a run).
const COLD_ID: u64 = 1 << 40;
const WARMUP_ID: u64 = 2 << 40;
const FIXED_ID: u64 = 3 << 40;
const CAPACITY_ID: u64 = 4 << 40;
const TRACED_ID: u64 = 5 << 40;

/// The traffic mix of a serve workload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Mix {
    /// Mean Poisson arrival rate of the fixed-rate phase, requests/s.
    rate: f64,
    /// Share of requests drawn from the adversarial pool.
    adversarial: f64,
    /// The vote budget every request carries.
    budget: VoteBudget,
}

/// Fixed rate of the two attack mixes, requests/s, and their adversarial
/// share. The votes are the expensive part: on a shared 2-core host a
/// 30% mix's capacity falls from about 750 to 250–450 rps while the host
/// is contended, so 300 rps of it grows a backlog that latency then
/// measures. Half the share at 300 rps keeps the vote load of 30% at
/// 150 rps, and gives twice the latencies: four p99 sub-windows instead
/// of one in a 17 s run, so one host stall moves the median of them no
/// more.
const ATTACK_RATE: f64 = 300.0;
const ATTACK_SHARE: f64 = 0.15;

/// The mix of `workload` (a serve workload).
fn mix(workload: Workload) -> Mix {
    match workload {
        Workload::ServeBenign => Mix {
            rate: 1000.0,
            adversarial: 0.0,
            budget: VoteBudget::unbounded(),
        },
        Workload::ServeBudget => Mix {
            rate: ATTACK_RATE,
            adversarial: ATTACK_SHARE,
            budget: budget_cap(),
        },
        _ => Mix {
            rate: ATTACK_RATE,
            adversarial: ATTACK_SHARE,
            budget: VoteBudget::unbounded(),
        },
    }
}

/// `serve-budget`'s per-request cap: 25 of the 50 votes, quorum 13. A cap
/// rather than a deadline, so answers do not depend on machine speed.
pub(crate) fn budget_cap() -> VoteBudget {
    VoteBudget {
        max_votes: Some(25),
        deadline: None,
        min_quorum: 13,
    }
}

/// Where a request's input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Src {
    Digit(usize),
    Pool(usize),
}

/// The run's inputs: fresh digits (the first `fresh` are used once each by
/// the fixed-rate phase, the rest are the spare set) and the pool.
struct Traffic<'a> {
    seed: u64,
    mix: Mix,
    digits: Vec<Tensor>,
    labels: Vec<usize>,
    fresh: usize,
    pool: &'a [Adversarial],
    /// The serialized DCN every server of the run loads.
    dcn_path: PathBuf,
}

impl Traffic<'_> {
    fn input(&self, src: Src) -> (&Tensor, usize) {
        match src {
            Src::Digit(i) => (&self.digits[i], self.labels[i]),
            Src::Pool(i) => (&self.pool[i].x, self.pool[i].label),
        }
    }

    fn request_seed(&self, id: u64) -> u64 {
        stream(self.seed ^ 0x5EED, id)
    }

    fn batch_request(&self, id: u64, src: Src) -> BatchRequest {
        BatchRequest {
            budget: self.mix.budget,
            ..BatchRequest::new(self.input(src).0.clone(), self.request_seed(id))
        }
    }

    /// The encoded frame of request `id`; traced frames pin their trace id
    /// to the request id.
    fn frame(&self, id: u64, src: Src, traced: bool) -> Result<Vec<u8>> {
        let req = Request {
            id,
            seed: self.request_seed(id),
            budget: self.mix.budget,
            trace: if traced { id } else { 0 },
            x: self.input(src).0.clone(),
        };
        Ok(frame(&encode_request(&req, WireMode::Binary)?))
    }

    /// The input of request `k` of a spare-set phase: a pure function of
    /// `k`, so the closed loop can build requests on demand.
    fn spare_src(&self, phase: u64, k: usize) -> Src {
        let draw = stream(stream(self.seed, phase), k as u64) as f64 / u64::MAX as f64;
        if draw < self.mix.adversarial && !self.pool.is_empty() {
            Src::Pool(k % self.pool.len())
        } else {
            Src::Digit(self.fresh + k % (self.digits.len() - self.fresh))
        }
    }
}

/// Draws the fixed-rate requests' sources (fresh digit or pool entry) and
/// builds the traffic around them. Exactly the mix's share of requests is
/// adversarial, at positions drawn from the seed, so the count behind
/// `accuracy` does not vary from seed to seed.
fn traffic(
    seed: u64,
    mix: Mix,
    n_fixed: usize,
    pool: &[Adversarial],
    dcn_path: PathBuf,
) -> Result<(Traffic<'_>, Vec<Src>)> {
    let n_adv = if pool.is_empty() {
        0
    } else {
        (mix.adversarial * n_fixed as f64).round() as usize
    };
    let mut adversarial = vec![false; n_fixed];
    adversarial[..n_adv].fill(true);
    adversarial.shuffle(&mut StdRng::seed_from_u64(stream(seed, 7)));
    let (mut digit, mut adv) = (0, 0);
    let srcs: Vec<Src> = adversarial
        .iter()
        .map(|&a| {
            if a {
                adv += 1;
                Src::Pool((adv - 1) % pool.len())
            } else {
                digit += 1;
                Src::Digit(digit - 1)
            }
        })
        .collect();
    let spare = SPARE.min(n_fixed.max(64));
    let data = synth_mnist(
        digit + spare,
        &SynthConfig::default(),
        &mut StdRng::seed_from_u64(stream(seed, 8)),
    );
    Ok((
        Traffic {
            seed,
            mix,
            digits: data.images().unstack()?,
            labels: data.labels().to_vec(),
            fresh: digit,
            pool,
            dcn_path,
        },
        srcs,
    ))
}

/// Poisson arrival times (ns after the phase start) of `n` requests.
fn arrivals(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(stream(seed, 6));
    let mut t = 0.005;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.gen::<f64>()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// One fixed-rate pass over `srcs`, ids `first_id..`.
fn fixed_pass(
    addr: SocketAddr,
    t: &Traffic<'_>,
    srcs: &[Src],
    due_ns: &[u64],
    first_id: u64,
    traced: bool,
) -> Result<PhaseLog> {
    let frames = srcs
        .iter()
        .enumerate()
        .map(|(k, &src)| t.frame(first_id + k as u64, src, traced))
        .collect::<Result<Vec<_>>>()?;
    loadgen::open_loop(addr, due_ns, &frames, first_id)
}

/// Times one cold start: load the artifact, start the server, wait for the
/// first answer. The shutdown after it is not timed.
fn cold_start(t: &Traffic<'_>, k: usize) -> Result<f64> {
    let id = COLD_ID + k as u64;
    let probe = Request {
        id,
        seed: t.request_seed(id),
        budget: t.mix.budget,
        trace: 0,
        x: t.digits[t.fresh].clone(),
    };
    let started = Instant::now();
    let server = Server::start(
        Arc::new(prepare::load_dcn(&t.dcn_path)?),
        ServerConfig::default(),
    )?;
    let answer = Client::connect(&server.addr().to_string(), WireMode::Binary)
        .and_then(|mut c| c.classify(&probe));
    let secs = started.elapsed().as_secs_f64();
    server.shutdown();
    match answer? {
        Response::Ok(_) => Ok(secs),
        Response::Err(e) => Err(format!("cold-start probe failed: {}", e.msg).into()),
    }
}

/// One phase's answers: serial recomputation of every sixteenth non-shed
/// answer, and the counts the metrics are made of.
struct Tally {
    checked: usize,
    mismatches: Vec<String>,
    correct: usize,
    answered: usize,
    shed: usize,
    flagged: usize,
    passes: usize,
}

fn tally(
    reference: &Dcn,
    t: &Traffic<'_>,
    log: &PhaseLog,
    first_id: u64,
    src: impl Fn(usize) -> Src,
) -> Tally {
    let mut out = Tally {
        checked: 0,
        mismatches: Vec::new(),
        correct: 0,
        answered: 0,
        shed: 0,
        flagged: 0,
        passes: 0,
    };
    for (k, reply) in log.replies.iter().enumerate() {
        let Some((_, Response::Ok(r))) = reply else {
            continue;
        };
        if r.shed {
            out.shed += 1;
            continue;
        }
        let (x, label) = t.input(src(k));
        if out.answered.is_multiple_of(VERIFY_EVERY) {
            let id = first_id + k as u64;
            let mut rng = StdRng::seed_from_u64(t.request_seed(id));
            out.checked += 1;
            match reference.try_classify_bounded(x, &mut rng, &t.mix.budget) {
                Ok(want)
                    if (want.label, want.verdict, want.base_passes, want.degraded)
                        == (r.label, r.verdict, r.base_passes, r.degraded) => {}
                want => out
                    .mismatches
                    .push(format!("request {id}: served {r:?}, serial {want:?}")),
            }
        }
        out.answered += 1;
        out.correct += usize::from(r.label == label);
        out.flagged += usize::from(r.verdict == DcnVerdict::Corrected);
        out.passes += r.base_passes;
    }
    out
}

/// Median of the p99s of up to ten consecutive sub-windows of the
/// fixed-rate phase, each with at least [`P99_WINDOW`] latencies.
fn windowed_p99(latencies: &[(usize, f64)]) -> Summary {
    let windows = (latencies.len() / P99_WINDOW).clamp(1, MAX_WINDOWS);
    let per = latencies.len().div_ceil(windows);
    let p99s: Vec<f64> = latencies
        .chunks(per.max(1))
        .map(|w| quantile(&w.iter().map(|l| l.1).collect::<Vec<_>>(), 0.99))
        .collect();
    Summary::of(&p99s)
}

/// One closed-loop segment of `secs` seconds: the answers after its first
/// tenth (the loop's ramp) and the seconds they took, plus the answer rate
/// of every 100 ms bucket for the record. Capacity is one rate over the
/// steady parts, not a median of buckets: answers arrive a batch at a
/// time, so short buckets hold whole batches and their rates move in steps
/// of up to 14% on serve-attack.
fn capacity(log: &PhaseLog, secs: f64) -> (f64, f64, Vec<f64>) {
    const BUCKET_NS: u64 = 100_000_000;
    let from_ns = (secs * 0.1 * 1e9) as u64;
    let to_ns = (secs * 1e9) as u64;
    let mut counts = vec![0.0; ((to_ns / BUCKET_NS) as usize).max(1)];
    let mut steady = 0.0;
    for r in &log.replies {
        if let Some((at, Response::Ok(_))) = r {
            if let Some(c) = counts.get_mut((at / BUCKET_NS) as usize) {
                *c += 1.0;
            }
            if (from_ns..to_ns).contains(at) {
                steady += 1.0;
            }
        }
    }
    let rates = counts.iter().map(|c| c * 1e9 / BUCKET_NS as f64).collect();
    (steady, (to_ns - from_ns) as f64 / 1e9, rates)
}

/// The measured phases of an untraced run.
struct Rounds {
    /// Seconds of every cold start.
    setups: Vec<f64>,
    /// The fixed-rate segments, one log with ids `FIXED_ID..`.
    fixed: PhaseLog,
    /// The capacity segments, one log with ids `CAPACITY_ID..`.
    capacity: PhaseLog,
    /// Answers and seconds of the capacity segments' steady parts.
    steady: (f64, f64),
    /// Answer rate of every 100 ms bucket of the capacity segments.
    buckets: Vec<f64>,
}

/// Measures an untraced run in [`ROUNDS`] rounds. Each round times
/// its share of the cold starts, then sends the next stretch of the
/// fixed-rate schedule, then runs a capacity segment. A shared host's speed
/// drifts by tens of percent within seconds; spread over the whole run,
/// every metric sees the same mix of that drift rather than one stretch of
/// it.
fn rounds(
    addr: SocketAddr,
    t: &Traffic<'_>,
    srcs: &[Src],
    due: &[u64],
    capacity_s: f64,
    scale: &Scale,
) -> Result<Rounds> {
    let cap_s = (capacity_s / ROUNDS as f64).max(0.25);
    let mut out = Rounds {
        setups: Vec::new(),
        fixed: PhaseLog::default(),
        capacity: PhaseLog::default(),
        steady: (0.0, 0.0),
        buckets: Vec::new(),
    };
    for r in 0..ROUNDS {
        for k in (r..scale.cold_starts.max(1)).step_by(ROUNDS) {
            out.setups.push(cold_start(t, k)?);
        }
        let (from, to) = (srcs.len() * r / ROUNDS, srcs.len() * (r + 1) / ROUNDS);
        if from < to {
            // Arrival times continue the one Poisson schedule, rebased to
            // the segment's start.
            let offset = if from == 0 { 0 } else { due[from - 1] };
            let seg_due: Vec<u64> = due[from..to].iter().map(|d| d - offset).collect();
            let log = fixed_pass(
                addr,
                t,
                &srcs[from..to],
                &seg_due,
                FIXED_ID + from as u64,
                false,
            )?;
            out.fixed.append(log, to - from);
        }
        let offset = out.capacity.replies.len();
        let first_id = CAPACITY_ID + offset as u64;
        // An unencodable frame goes out empty and is counted as missing.
        let log = loadgen::closed_loop(
            addr,
            WINDOW,
            Duration::from_secs_f64(cap_s),
            (40_000.0 * cap_s) as usize + WINDOW,
            first_id,
            |k| {
                t.frame(first_id + k as u64, t.spare_src(11, offset + k), false)
                    .unwrap_or_default()
            },
        )?;
        let (answers, secs, buckets) = capacity(&log, cap_s);
        out.steady = (out.steady.0 + answers, out.steady.1 + secs);
        out.buckets.extend(buckets);
        let sent = log.sent();
        out.capacity.append(log, sent);
    }
    Ok(out)
}

/// Requests whose input was already sent earlier in the phase, and
/// requests drawn from the adversarial pool.
fn input_counts(srcs: &[Src]) -> (f64, f64) {
    let adversarial = srcs.iter().filter(|s| matches!(s, Src::Pool(_))).count();
    let mut seen = std::collections::BTreeSet::new();
    let repeats = srcs.iter().filter(|s| !seen.insert(**s)).count();
    (repeats as f64, adversarial as f64)
}

/// What became of a phase's requests, failure by failure.
fn outcome_counts(log: &PhaseLog) -> Vec<(String, Value)> {
    [
        ("sent", log.sent() as u64),
        ("failures", log.failures()),
        ("missing", log.missing()),
        ("errors", log.errors()),
        ("io_errors", log.io_errors),
        ("stray", log.stray),
        ("rejected", log.rejected),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), Value::Num(v as f64)))
    .collect()
}

/// Runs a serve workload once.
///
/// # Errors
///
/// Preparation or server start-up failures.
pub fn run(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    ctx: &RunCtx,
    traced: bool,
) -> Result<Outcome> {
    let prepared = match &ctx.artifacts {
        Some(dir) => Prepared::load(dir)?,
        None => {
            let p = prepare::prepare(&scale.prepare)?;
            p.save(&ctx.out.join("artifacts"))?;
            p
        }
    };
    let dcn_path = prepare::dcn_path(
        ctx.artifacts
            .as_deref()
            .unwrap_or(&ctx.out.join("artifacts")),
    );
    // The serial reference is the DCN the servers load, read back from disk.
    let reference = prepare::load_dcn(&dcn_path)?;
    let m = mix(workload);

    // Measured time: four fifths fixed rate, where the p99 needs samples
    // (at 300 rps, 17 s give 4080: four sub-windows), and one fifth
    // capacity; a traced run splits it into an untraced and a traced pass.
    let (fixed_s, capacity_s) = if traced {
        (scale.seconds / 2.0, 0.0)
    } else {
        (scale.seconds * 0.8, scale.seconds * 0.2)
    };
    let n_pass = ((m.rate * fixed_s).round() as usize).max(1);
    let n_fixed = if traced { 2 * n_pass } else { n_pass };
    let (t, srcs) = traffic(seed, m, n_fixed, &prepared.pool, dcn_path)?;
    let due = arrivals(seed, m.rate, n_pass);

    let mut ledger = Ledger::default();
    let mut checks = Vec::new();
    let mut detail = vec![("prepare".to_string(), prepared.report.clone())];

    let server = Server::start(
        Arc::new(prepare::load_dcn(&t.dcn_path)?),
        ServerConfig::default(),
    )?;
    let addr = server.addr();
    let n_warm = ((m.rate * scale.warmup_s).round() as usize).max(1);
    let warm_srcs: Vec<Src> = (0..n_warm).map(|k| t.spare_src(10, k)).collect();
    let warm = fixed_pass(
        addr,
        &t,
        &warm_srcs,
        &arrivals(seed ^ 1, m.rate, n_warm),
        WARMUP_ID,
        false,
    )?;

    let mut logs: Vec<(&str, u64, PhaseLog, Vec<Src>)> = Vec::new();
    if traced {
        let untraced = fixed_pass(addr, &t, &srcs[..n_pass], &due, FIXED_ID, false)?;
        logs.push(("untraced", FIXED_ID, untraced, srcs[..n_pass].to_vec()));
        let (traced_log, traces, snapshot) = traced_pass(addr, &t, &srcs[n_pass..], &due)?;
        logs.push(("traced", TRACED_ID, traced_log, srcs[n_pass..].to_vec()));
        live_metrics(&mut ledger, &logs[0].2, &logs[1].2, &traces, &snapshot);
    } else {
        let measured = rounds(addr, &t, &srcs, &due, capacity_s, scale)?;
        ledger.extend([
            Metric::timing("setup_s", "s", Summary::of(&measured.setups)),
            Metric::new(
                "throughput_per_s",
                "1/s",
                Record::Ratio {
                    num: measured.steady.0,
                    den: measured.steady.1,
                },
            ),
            Metric::timing(
                "capacity.bucket_rate_per_s",
                "1/s",
                Summary::of(&measured.buckets),
            ),
        ]);
        let cap_srcs: Vec<Src> = (0..measured.capacity.replies.len())
            .map(|k| t.spare_src(11, k))
            .collect();
        logs.push(("fixed", FIXED_ID, measured.fixed, srcs.clone()));
        logs.push(("capacity", CAPACITY_ID, measured.capacity, cap_srcs));
    }
    server.shutdown();

    // Correctness and traffic facts, phase by phase.
    let mut attempted = warm.sent() as u64;
    let mut failed = warm.failures();
    let mut rejected = warm.rejected;
    let mut phases = vec![("warmup".to_string(), Value::Obj(outcome_counts(&warm)))];
    let mut tallies = Vec::new();
    for (name, first_id, log, srcs) in &logs {
        let tl = tally(&reference, &t, log, *first_id, |k| srcs[k]);
        attempted += log.sent() as u64;
        failed += log.failures();
        rejected += log.rejected;
        checks.push(Check::new(
            &format!("{name}: batched answers equal serial try_classify_bounded"),
            tl.mismatches.is_empty() && tl.checked > 0,
            format!(
                "{} of {} non-shed answers recomputed; {}",
                tl.checked,
                tl.answered,
                tl.mismatches.first().map_or("all equal", String::as_str)
            ),
        ));
        let (repeats, adversarial) = input_counts(&srcs[..log.sent().min(srcs.len())]);
        let mut counts = outcome_counts(log);
        counts.extend([
            ("answered".into(), Value::Num(tl.answered as f64)),
            ("shed".into(), Value::Num(tl.shed as f64)),
            ("correct".into(), Value::Num(tl.correct as f64)),
            ("flagged".into(), Value::Num(tl.flagged as f64)),
            ("base_passes".into(), Value::Num(tl.passes as f64)),
            ("repeated_inputs".into(), Value::Num(repeats)),
            ("adversarial".into(), Value::Num(adversarial)),
            ("checked".into(), Value::Num(tl.checked as f64)),
        ]);
        phases.push((name.to_string(), Value::Obj(counts)));
        tallies.push(tl);
    }
    if failed > 0 {
        eprintln!(
            "requests failed; outcomes by phase: {}",
            serde_json::to_string(&Value::Obj(phases.clone()))?
        );
    }
    // The first measured phase (fixed rate, or the untraced pass) carries
    // the latency, accuracy and input-property numbers.
    let (tl, (_, _, fixed, fixed_srcs)) = (&tallies[0], &logs[0]);
    let sent = fixed.sent() as f64;
    let (repeats, adversarial) = input_counts(fixed_srcs);
    let latencies = fixed.latencies_ms();
    ledger.extend([
        Metric::ratio("accuracy", tl.correct as f64, tl.answered as f64),
        Metric::ratio("failed_share", failed as f64, attempted as f64),
        Metric::ratio("shed_share", tl.shed as f64, (tl.answered + tl.shed) as f64),
        Metric::ratio("rejected_share", rejected as f64, attempted as f64),
        Metric::ratio("loadgen.repeat_share", repeats, sent),
        Metric::ratio("loadgen.adversarial_share", adversarial, sent),
        Metric::scalar("loadgen.lag_p99_ms", "ms", quantile(&fixed.lag_ms(), 0.99)),
        Metric::ratio("core.flag_share", tl.flagged as f64, tl.answered as f64),
    ]);
    if !traced {
        let lat: Vec<f64> = latencies.iter().map(|l| l.1).collect();
        ledger.push(Metric::timing("p50_ms", "ms", Summary::of(&lat)));
        ledger.push(Metric::timing("p99_ms", "ms", windowed_p99(&latencies)));
        ledger.push(Metric::new(
            "core.base_passes_per_req",
            "passes/req",
            Record::Ratio {
                num: tl.passes as f64,
                den: tl.answered as f64,
            },
        ));
    } else {
        let requests: Vec<BatchRequest> = fixed_srcs
            .iter()
            .enumerate()
            .map(|(k, &src)| t.batch_request(FIXED_ID + k as u64, src))
            .collect();
        let spare = t.digits.len() - t.fresh;
        let train_n = 32.min(spare);
        let train_x = Tensor::stack(&t.digits[t.fresh..t.fresh + train_n])?;
        let train_y = &t.labels[t.fresh..t.fresh + train_n];
        ledger.extend(ledger::replay(&ReplaySet {
            dcn: &reference,
            requests: &requests,
            train_x: &train_x,
            train_y,
        })?);
    }
    ledger.extend(memory_metrics());

    let input_value = |name: &str| {
        ledger
            .get(name)
            .map_or(Value::Null, |m| Value::Num(m.value()))
    };
    let inputs = Value::Obj(vec![
        (
            "loadgen.repeat_share".into(),
            input_value("loadgen.repeat_share"),
        ),
        (
            "loadgen.adversarial_share".into(),
            input_value("loadgen.adversarial_share"),
        ),
        ("core.flag_share".into(), input_value("core.flag_share")),
        (
            "serve.batch_size_mean".into(),
            input_value("serve.batch_size_mean"),
        ),
    ]);
    detail.push((
        "mix".into(),
        Value::Obj(vec![
            ("rate".into(), Value::Num(m.rate)),
            ("adversarial".into(), Value::Num(m.adversarial)),
            (
                "max_votes".into(),
                m.budget
                    .max_votes
                    .map_or(Value::Null, |v| Value::Num(v as f64)),
            ),
            ("min_quorum".into(), Value::Num(m.budget.min_quorum as f64)),
            ("fixed_s".into(), Value::Num(fixed_s)),
            ("capacity_s".into(), Value::Num(capacity_s)),
            ("rounds".into(), Value::Num(ROUNDS as f64)),
            ("window".into(), Value::Num(WINDOW as f64)),
        ]),
    ));
    detail.push(("phases".into(), Value::Obj(phases)));
    Ok(Outcome {
        attempted,
        failed,
        checks,
        ledger,
        inputs,
        detail: Value::Obj(detail),
    })
}

/// The traced fixed-rate pass: collection and tracing on, trace ids pinned
/// by the client, completed span trees gathered every 100 ms (the server
/// keeps only the last 512).
fn traced_pass(
    addr: SocketAddr,
    t: &Traffic<'_>,
    srcs: &[Src],
    due: &[u64],
) -> Result<(PhaseLog, Vec<dcn_obs::TraceRecord>, dcn_obs::Snapshot)> {
    dcn_obs::reset();
    dcn_obs::reset_traces();
    dcn_obs::set_enabled(true);
    dcn_obs::set_trace_enabled(true);
    let stop = AtomicBool::new(false);
    let (log, traces) = std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            let mut seen: BTreeMap<u64, dcn_obs::TraceRecord> = BTreeMap::new();
            loop {
                let done = stop.load(Ordering::SeqCst);
                for r in dcn_obs::completed_traces() {
                    seen.insert(r.trace_id, r);
                }
                if done {
                    return seen.into_values().collect::<Vec<_>>();
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let log = fixed_pass(addr, t, srcs, due, TRACED_ID, true);
        stop.store(true, Ordering::SeqCst);
        (log, monitor.join().expect("trace monitor panicked"))
    });
    let snapshot = dcn_obs::snapshot("dcn-benchmark");
    // Off again before shutdown, so no flight-recorder dump is written.
    dcn_obs::set_enabled(false);
    dcn_obs::set_trace_enabled(false);
    Ok((log?, traces, snapshot))
}

/// The serving plane's live numbers from the traced pass: stage spans,
/// server-side latency, batch occupancy, and the tracing overhead against
/// the untraced pass.
fn live_metrics(
    ledger: &mut Ledger,
    untraced: &PhaseLog,
    traced: &PhaseLog,
    traces: &[dcn_obs::TraceRecord],
    snapshot: &dcn_obs::Snapshot,
) {
    let p50 =
        |log: &PhaseLog| Summary::of(&log.latencies_ms().iter().map(|l| l.1).collect::<Vec<_>>());
    let (plain, live) = (p50(untraced), p50(traced));
    ledger.push(Metric::timing("live.p50_ms", "ms", live));
    ledger.push(Metric::scalar(
        "live.trace_overhead",
        "fraction",
        live.median / plain.median - 1.0,
    ));
    let server_p50 = snapshot
        .sketch(dcn_serve::names::SERVE_REQUEST_LATENCY)
        .map_or(f64::NAN, |s| s.p50 * 1e3);
    ledger.push(Metric::scalar(
        "serve.server_latency_p50_ms",
        "ms",
        server_p50,
    ));
    ledger.push(Metric::scalar(
        "serve.wire_gap_p50_ms",
        "ms",
        live.median - server_p50,
    ));
    if let Some(h) = snapshot.histogram(dcn_serve::names::SERVE_BATCH_OCCUPANCY) {
        ledger.push(Metric::scalar("serve.batch_size_mean", "count", h.mean()));
    }
    let stages = [
        (obs_names::TRACE_STAGE_ENQUEUE_WAIT, "serve.queue_wait"),
        (
            obs_names::TRACE_STAGE_BATCH_ASSEMBLY,
            "serve.batch_assembly",
        ),
        (
            obs_names::TRACE_STAGE_DETECTOR_FORWARD,
            "serve.detector_stage",
        ),
        (obs_names::TRACE_STAGE_VOTE_LOOP, "serve.vote_stage"),
        (obs_names::TRACE_STAGE_WRITE_BACK, "serve.write_back"),
    ];
    for (stage, name) in stages {
        let ms: Vec<f64> = traces
            .iter()
            .flat_map(|r| r.stages.iter())
            .filter(|s| s.name == stage)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect();
        if ms.is_empty() {
            continue;
        }
        ledger.push(Metric::scalar(
            format!("{name}_p50_ms"),
            "ms",
            quantile(&ms, 0.5),
        ));
        ledger.push(Metric::scalar(
            format!("{name}_p99_ms"),
            "ms",
            quantile(&ms, 0.99),
        ));
        ledger.push(Metric::timing(format!("{name}_ms"), "ms", Summary::of(&ms)));
    }
    ledger.push(Metric::new(
        "serve.traces_collected",
        "count",
        Record::Count(traces.len() as u64),
    ));
}
