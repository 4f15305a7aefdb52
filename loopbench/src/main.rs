//! Closed-loop ExBox benchmark driver.
//!
//! ```sh
//! cargo run --release --manifest-path loopbench/Cargo.toml -- \
//!     --workload storm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload per process. Human-readable lines (machine record,
//! every metric by name and unit, or `SKIPPED: <reason>`) come first;
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed correctness
//! check exits with status 1. `--trace 1` also writes the run's spans
//! as JSONL under `loopbench/out/`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use exbox_loopbench::driver::{
    run_episode, steal_ticks, Block, Episode, EpisodeSpec, Mode, BLOCK_NS,
};
use exbox_loopbench::ledger;
use exbox_loopbench::report::{Report, END_TO_END, PER_LAYER};
use exbox_loopbench::stats::{calibrate_timer_ns, Samples};
use exbox_loopbench::system::{self, System};
use exbox_loopbench::trace::{layer_totals, write_jsonl, LayerTotals, Tracer};
use exbox_loopbench::workload::Kind;
use exbox_obs::MetricsSnapshot;

/// Timed episodes run per process at the least, however long they take
/// (set-up is timed once per episode, so this is also the smallest
/// `setup_s` sample).
const MIN_EPISODES: usize = 3;

/// Set-ups timed per process at the least: the episodes' own, then
/// set-ups that are dropped unused.
const MIN_SETUPS: usize = 21;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn usage() -> String {
    "usage: exbox-loopbench --workload storm|drift|flash_crowd --seed N --seconds S \
     --trace 0|1 [--quick]"
        .into()
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(Args {
        kind: kind.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace,
        quick,
    })
}

fn machine_record(a: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features = if cfg!(feature = "simd") {
        "simd"
    } else {
        "none"
    };
    let knobs: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("EXBOX_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "machine nproc={nproc} rustc=\"{}\" features={features} mode={} seed={} git_rev=\"{}\" \
         workload={} seconds={} trace={} exbox_env=[{}]",
        env!("LOOPBENCH_RUSTC"),
        if a.quick { "quick" } else { "full" },
        a.seed,
        env!("LOOPBENCH_GIT_REV"),
        a.kind.name(),
        a.seconds,
        u8::from(a.trace),
        knobs.join(" "),
    );
}

fn timed_setup(kind: Kind, setups: &mut Samples) -> Result<System, String> {
    let t = Instant::now();
    let sys = system::setup(kind)?;
    setups.push(t.elapsed().as_secs_f64());
    Ok(sys)
}

/// Sum of a histogram's observations (a per-retrain count summed over
/// the episode).
fn hist_sum(s: &MetricsSnapshot, name: &str) -> f64 {
    s.histogram(name).map_or(0.0, |h| h.sum)
}

fn counter(s: &MetricsSnapshot, name: &str) -> f64 {
    s.counter(name).unwrap_or(0) as f64
}

struct Timed {
    traced: bool,
    ep: Episode,
    /// The classifier registry right after set-up, to subtract the
    /// bootstrap's own training from the episode's counts.
    learnt_before: Option<MetricsSnapshot>,
}

/// Steal-free blocks the rate metrics need before they leave the
/// others out.
const MIN_CLEAN_BLOCKS: usize = 10;

fn per_ns(total_ns: f64, n: f64) -> Option<f64> {
    (n > 0.0).then(|| total_ns / n)
}

fn run(a: &Args) -> Result<ExitCode, String> {
    machine_record(a);
    let run_start = Instant::now();
    let steal_start = steal_ticks();
    let timer_ns = calibrate_timer_ns();
    let mut setups = Samples::new();

    // Untimed sequential reference replay: the verdict stream every
    // timed episode must reproduce, and the denominator of the tax.
    let mut sys = timed_setup(a.kind, &mut setups)?;
    let mut cell = system::cell(a.kind, a.seed, &sys.estimator);
    let mut quiet = Tracer::new(false);
    let reference = run_episode(
        EpisodeSpec {
            kind: a.kind,
            seed: a.seed,
            quick: a.quick,
            mode: Mode::Sequential,
            reference: None,
            record: false,
        },
        &mut sys,
        &mut cell,
        &mut quiet,
    );
    drop(sys);

    let mut tracer = Tracer::new(false);
    let mut timed: Vec<Timed> = Vec::new();
    let mut peak_rss_kb = None;
    let start = Instant::now();
    let min = if a.trace {
        MIN_EPISODES + 1
    } else {
        MIN_EPISODES
    };
    while timed.len() < min || start.elapsed().as_secs_f64() < a.seconds {
        // Traced runs alternate untraced and traced episodes; the
        // difference is the tracing overhead.
        let traced = a.trace && timed.len() % 2 == 1;
        let first_traced = traced && !timed.iter().any(|t| t.traced);
        tracer.set_recording(traced);
        let mut sys = timed_setup(a.kind, &mut setups)?;
        let mut cell = system::cell(a.kind, a.seed, &sys.estimator);
        let learnt_before = sys.learnt.as_ref().map(|r| r.snapshot());
        let ep = run_episode(
            EpisodeSpec {
                kind: a.kind,
                seed: a.seed,
                quick: a.quick,
                mode: Mode::Pipeline,
                reference: Some(&reference),
                record: first_traced,
            },
            &mut sys,
            &mut cell,
            &mut tracer,
        );
        drop(sys);
        timed.push(Timed {
            traced,
            ep,
            learnt_before,
        });
        if timed.len() == 1 {
            // Every state the run reaches has now been reached once.
            // Later episodes only add the harness's own samples, and
            // how many fit in the run depends on the host's speed.
            peak_rss_kb = exbox_bench::peak_rss_kb();
        }
    }
    // Episodes are few, so `setup_s` gets set-ups of its own.
    while setups.len() < MIN_SETUPS {
        drop(timed_setup(a.kind, &mut setups)?);
    }

    // ---- correctness ------------------------------------------------
    let mut failed = reference.failed;
    let mut attempted = reference.attempted();
    let mut notes: Vec<String> = reference
        .notes
        .iter()
        .map(|n| format!("reference: {n}"))
        .collect();
    for (i, t) in timed.iter().enumerate() {
        failed += t.ep.failed;
        attempted += t.ep.attempted();
        notes.extend(t.ep.notes.iter().map(|n| format!("episode {i}: {n}")));
        let raced = reference.poll_races + t.ep.poll_races > 0;
        if !raced && t.ep.quality != reference.quality {
            failed += 1;
            notes.push(format!(
                "episode {i}: decision quality {:?} differs from the reference {:?}",
                t.ep.quality, reference.quality
            ));
        }
    }
    for n in &notes {
        println!("FAILED {n}");
    }
    // The poll/trainer race is a defect of the gateway, not of the
    // pipeline: report every occurrence, with how much of the verdict
    // stream was still compared byte for byte.
    let races: u64 = reference.poll_races + timed.iter().map(|t| t.ep.poll_races).sum::<u64>();
    let compared: u64 = timed.iter().map(|t| t.ep.compared_ticks).sum();
    let ticks_total = timed.len() as u64 * reference.polls;
    println!(
        "check reference: {compared} of {ticks_total} timed ticks compared byte for byte with the \
         sequential replay; poll_trainer_races={races}"
    );
    for (who, ep) in std::iter::once(("reference", &reference))
        .chain(timed.iter().map(|t| ("timed episode", &t.ep)))
    {
        if let Some(tick) = ep.first_race_tick {
            println!(
                "RACE {who}: tick {tick}: a poll's own observation completed a retrain and the \
                 publish raced the poll's region re-evaluation ({} such polls)",
                ep.poll_races
            );
        }
    }

    // ---- end-to-end -------------------------------------------------
    let kind = a.kind;
    let mut r = Report::new();
    let untraced: Vec<&Episode> = timed.iter().filter(|t| !t.traced).map(|t| &t.ep).collect();
    let usum = |f: &dyn Fn(&Episode) -> u64| -> f64 { untraced.iter().map(|e| f(e) as f64).sum() };
    r.median("setup_s", "s", &mut setups, "no set-up completed");
    // Timings are medians over independent parts of the run (ticks,
    // blocks of ticks or episodes), so a burst of host noise moves one
    // part, not the figure. The rates use only blocks the hypervisor
    // stole no CPU time from, when there are enough of them.
    let packets = usum(&|e| e.packets);
    let all_blocks: usize = untraced.iter().map(|e| e.blocks.len()).sum();
    let clean_blocks: usize = untraced
        .iter()
        .map(|e| e.blocks.iter().filter(|b| b.clean).count())
        .sum();
    let only_clean = clean_blocks >= MIN_CLEAN_BLOCKS;
    let block_note = if only_clean {
        format!("{clean_blocks} of {all_blocks} blocks free of host steal")
    } else {
        format!(
            "all {all_blocks} blocks: only {clean_blocks} free of host steal, fewer than {MIN_CLEAN_BLOCKS}"
        )
    };
    let mut tick_mpps = Samples::new();
    let mut publish_ms = Samples::new();
    let mut p50s = Samples::new();
    let mut p99s = Samples::new();
    let mut levels = std::collections::BTreeSet::new();
    let mut chunks = 0usize;
    let mut loop_rates = Samples::new();
    let mut pooled = Samples::new();
    for e in &untraced {
        pooled.extend(&e.chunk_us);
        let usable = |b: &Block| !only_clean || b.clean;
        for &(rate, block) in &e.tick_mpps {
            if e.blocks.get(block).is_some_and(usable) {
                tick_mpps.push(rate);
            }
        }
        for b in e.blocks.iter().filter(|b| usable(b)) {
            if let Some(v) = per_ns(b.events as f64 * 1e9, b.gateway_ns as f64) {
                loop_rates.push(v);
            }
        }
        publish_ms.extend(&e.publish_ms);
        let mut c = e.chunk_us.clone();
        chunks += c.len();
        if let Some(v) = c.median() {
            p50s.push(v);
        }
        if let Some(t) = c.tail(0.99) {
            p99s.push(t.value);
            levels.insert(t.label());
        }
    }
    r.maybe(
        "pkt_rate_mpps",
        "Mpkt/s",
        tick_mpps.median(),
        &format!(
            "median over {} ticks of tick packets / packet-phase time ({block_note}); {packets} packets",
            tick_mpps.len()
        ),
        "no packets",
    );
    let eps = untraced.len();
    r.maybe(
        "verdict_p50_us",
        "us",
        p50s.median(),
        &format!(
            "median over {eps} episodes of the episode's p50; {chunks} chunks (chunks sent \
             before a packet phase's first verdict are pipeline.first_verdict_us)"
        ),
        "no chunk completed",
    );
    let levels: Vec<String> = levels.into_iter().collect();
    r.maybe(
        "verdict_p99_us",
        "us",
        p99s.median(),
        &format!(
            "median over {eps} episodes of the episode's {}; {chunks} chunks; pooled p90 {} p95 {} p99.9 {}",
            levels.join("/"),
            pooled.quantile(0.90).unwrap_or(0.0),
            pooled.quantile(0.95).unwrap_or(0.0),
            pooled.quantile(0.999).unwrap_or(0.0),
        ),
        "too few chunks per episode for a tail percentile",
    );
    let events = usum(&|e| e.events());
    r.maybe(
        "loop_events_per_s",
        "events/s",
        loop_rates.median(),
        &format!(
            "median over {} blocks of consecutive ticks (>= {} ms of gateway calls each; \
             {block_note}) of events / time in packet, report, departure and poll calls; \
             {events} events",
            loop_rates.len(),
            BLOCK_NS / 1_000_000
        ),
        "no gateway call",
    );
    let no_publish = if kind == Kind::Storm {
        "serving-only gateway: no trainer, nothing is ever published"
    } else if kind == Kind::FlashCrowd {
        "classifier pinned in bootstrap: no retrain, nothing is published"
    } else {
        "no retrain completed during the run"
    };
    if publish_ms.is_empty() {
        r.skip("publish_p50_ms", "ms", no_publish);
        r.skip("publish_p99_ms", "ms", no_publish);
    } else {
        r.median("publish_p50_ms", "ms", &mut publish_ms, no_publish);
        r.tail("publish_p99_ms", "ms", &mut publish_ms, no_publish);
    }
    let q = reference.quality;
    let app = reference.app_quality;
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    let qnote = format!(
        "observed QoE label: tp={} fp={} tn={} fn={} over {} distinct (epoch, matrix) decisions; \
         application-level truth: precision {} recall {}",
        q.tp,
        q.fp,
        q.tn,
        q.fn_,
        q.decisions(),
        fmt(app.precision()),
        fmt(app.recall()),
    );
    r.maybe(
        "admit_precision",
        "ratio",
        q.precision(),
        &qnote,
        "no admission decision",
    );
    r.maybe(
        "admit_recall",
        "ratio",
        q.recall(),
        &qnote,
        "no decision whose label was acceptable",
    );
    r.maybe(
        "peak_rss_mb",
        "MB",
        peak_rss_kb.map(|kb| kb as f64 / 1024.0),
        "VmHWM after the reference replay and the first timed episode",
        "VmHWM unavailable (not Linux?)",
    );
    r.value(
        "failed_frac",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
        format!("{failed} of {attempted} operations"),
    );

    // ---- per-layer (traced runs) ------------------------------------
    let mut spans_written = None;
    if a.trace {
        per_layer(&mut r, a, &timed, &reference, timer_ns, &mut tracer);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", kind.name(), a.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| File::create(&path))
            .and_then(|f| {
                let mut w = BufWriter::new(f);
                write_jsonl(tracer.spans(), &mut w)?;
                w.flush()
            });
        match written {
            Ok(()) => spans_written = Some(path),
            Err(e) => return Err(format!("writing {}: {e}", path.display())),
        }
    }

    // Time the hypervisor ran other guests on the machine's CPUs: the
    // noise floor every wall-clock figure of this run sat on.
    if let (Some(s0), Some(s1)) = (steal_start, steal_ticks()) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let wall = run_start.elapsed().as_secs_f64();
        let stolen = s1.saturating_sub(s0) as f64 / 100.0;
        println!(
            "host steal: {stolen:.2} CPU-seconds over {wall:.1} s on {cpus} CPUs ({:.1}% of CPU time; \
             /proc/stat, 100 ticks/s assumed)",
            100.0 * stolen / (wall * cpus)
        );
    }
    r.print();
    if let Some(p) = spans_written {
        println!("spans {} written to {}", tracer.spans().len(), p.display());
    }
    let names = if a.trace { PER_LAYER } else { END_TO_END };
    let (line, errors) = r.json(names, failed == 0, attempted, failed);
    for e in &errors {
        println!("FAILED {e}");
    }
    println!("{line}");
    Ok(if failed == 0 && errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn per_layer(
    r: &mut Report,
    a: &Args,
    timed: &[Timed],
    reference: &Episode,
    timer_ns: f64,
    tracer: &mut Tracer,
) {
    let kind = a.kind;
    let traced: Vec<&Timed> = timed.iter().filter(|t| t.traced).collect();
    let totals = layer_totals(tracer.spans());
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_item = |t: LayerTotals| per_ns(t.total_ns as f64, t.items as f64);

    // Self-time summary, so every number below traces back to spans.
    let loop_ns = get("tick").total_ns.max(1) as f64;
    println!("self-time per span name (traced episodes; share of tick time):");
    for (name, t) in &totals {
        println!(
            "  span {name:<22} count={:<8} total_ms={:<12.3} self_ms={:<12.3} self_share={:.4} items={}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / loop_ns,
            t.items
        );
    }

    // gateway::pipeline / spsc
    r.maybe(
        "pipeline.ingest_ns_per_pkt",
        "ns",
        per_item(get("pipeline.ingest")),
        "pipeline.ingest spans",
        "no ingest span",
    );
    r.maybe(
        "pipeline.drain_ns_per_pkt",
        "ns",
        per_item(get("pipeline.drain")),
        "pipeline.drain spans, waiting included",
        "no drain span",
    );
    let mut start_us = Samples::new();
    let mut finish_us = Samples::new();
    let mut poll_us = Samples::new();
    let mut flush_ms = Samples::new();
    for t in &traced {
        start_us.extend(&t.ep.start_us);
        finish_us.extend(&t.ep.finish_us);
        poll_us.extend(&t.ep.poll_us);
        flush_ms.extend(&t.ep.flush_ms);
    }
    r.median(
        "pipeline.start_us",
        "us",
        &mut start_us,
        "no pipeline started",
    );
    let mut first_us = Samples::new();
    for t in &traced {
        first_us.extend(&t.ep.first_chunk_us);
    }
    r.median(
        "pipeline.first_verdict_us",
        "us",
        &mut first_us,
        "no packet phase had a chunk",
    );
    r.median(
        "pipeline.finish_us",
        "us",
        &mut finish_us,
        "no pipeline finished",
    );
    let last = &traced
        .last()
        .expect("traced runs include traced episodes")
        .ep;
    let m = &last.metrics;
    r.value(
        "pipeline.ring_full_stalls",
        "count",
        counter(m, "gateway.ring_full_stalls"),
        "gateway.ring_full_stalls, last traced episode",
    );
    r.value(
        "pipeline.reorder_stalls",
        "count",
        counter(m, "pipeline.reorder_stalls"),
        "last traced episode",
    );
    r.value(
        "pipeline.gate_waits",
        "count",
        counter(m, "pipeline.gate_waits"),
        "last traced episode",
    );
    let seq_per_pkt = per_ns(reference.packet_phase_ns as f64, reference.packets as f64);
    let pipe_per_pkt = per_ns(
        traced.iter().map(|t| t.ep.packet_phase_ns as f64).sum(),
        traced.iter().map(|t| t.ep.packets as f64).sum(),
    );
    r.maybe(
        "pipeline.tax",
        "ratio",
        pipe_per_pkt.zip(seq_per_pkt).map(|(p, s)| p / s),
        "traced packet-phase ns/pkt over sequential replay ns/pkt",
        "no packets",
    );

    // gateway::shard
    r.maybe(
        "shard.batch_ns_per_pkt",
        "ns",
        seq_per_pkt,
        "sequential process_packets replay",
        "no packets",
    );
    let hits = counter(m, "gateway.cache_hits");
    let misses = counter(m, "gateway.cache_misses");
    r.maybe(
        "shard.cache_hit_ratio",
        "ratio",
        (hits + misses > 0.0).then(|| hits / (hits + misses)),
        &format!("{hits} hits, {misses} misses"),
        "no model decision went through the cache (bootstrap snapshot admits without a model)",
    );
    r.value(
        "shard.revokes",
        "count",
        counter(m, "middlebox.revokes"),
        "middlebox.revokes",
    );
    r.value(
        "shard.rejected_evictions",
        "count",
        counter(m, "middlebox.rejected_evictions"),
        "middlebox.rejected_evictions",
    );

    // ledger
    let rec = traced
        .iter()
        .find_map(|t| t.ep.recording.as_ref())
        .expect("the first traced episode records ledger inputs");
    // The same deterministic fit every set-up makes.
    let estimator = exbox_bench::standard_estimator().0;
    let mut entries = ledger::run(rec, &estimator, timer_ns);
    for e in entries.iter_mut() {
        let n = e.samples.len();
        let v = e.median();
        r.maybe(
            e.name,
            "ns",
            v,
            &format!("median of {n} samples x {} calls", ledger::K),
            "the workload recorded no input for this layer",
        );
    }
    let first = traced
        .iter()
        .find(|t| t.ep.recording.is_some())
        .map(|t| &t.ep)
        .expect("recorded episode");
    let miss_ratio = if hits + misses > 0.0 {
        misses / (hits + misses)
    } else {
        1.0
    };
    let predicted = ledger::per_packet_ns(
        &mut entries,
        &first.paths,
        first.packets,
        miss_ratio,
        exbox_core::gateway::GatewayConfig::default().batch,
    );
    r.maybe(
        "ledger.sum_over_batch",
        "ratio",
        predicted.zip(seq_per_pkt).map(|(p, s)| p / s),
        &format!(
            "ledger {:.1} ns/pkt over batch; paths: {} rejected-probe drops, {} flow-table hits, {} classified, {} decisions of {} packets",
            predicted.unwrap_or(0.0),
            first.paths.rejected_hits,
            first.paths.admitted_hits,
            first.paths.classified,
            first.paths.decisions,
            first.packets
        ),
        "no packets",
    );

    // lifecycle and poll
    r.maybe(
        "lifecycle.delivery_ns",
        "ns",
        per_item(get("lifecycle.delivery")),
        "lifecycle.delivery spans",
        "no delivery report sent",
    );
    r.maybe(
        "lifecycle.departure_ns",
        "ns",
        per_item(get("lifecycle.departure")),
        "lifecycle.departure spans",
        "no departure sent",
    );
    r.median("poll.tick_us_p50", "us", &mut poll_us, "no poll");
    r.tail("poll.tick_us_p99", "us", &mut poll_us, "no poll");

    // trainer, admittance, exbox-ml
    let no_trainer = "serving-only gateway: no trainer";
    if kind == Kind::Storm {
        for (name, unit) in [
            ("trainer.flush_ms_p50", "ms"),
            ("trainer.flush_ms_p99", "ms"),
            ("trainer.publishes", "count"),
            ("admittance.retrains", "count"),
            ("admittance.smo_iterations", "count"),
            ("admittance.gram_incremental_rows", "count"),
            ("admittance.warm_start_alphas", "count"),
            ("admittance.store_compactions", "count"),
            ("trainer.staleness_max", "count"),
        ] {
            r.skip(name, unit, no_trainer);
        }
    } else {
        r.median("trainer.flush_ms_p50", "ms", &mut flush_ms, "no barrier");
        r.tail("trainer.flush_ms_p99", "ms", &mut flush_ms, "no barrier");
        r.value(
            "trainer.publishes",
            "count",
            last.publishes as f64,
            "last traced episode",
        );
        let lt = traced.last().expect("traced episode");
        let empty = exbox_obs::MetricsRegistry::new().snapshot();
        let after = last.learnt.as_ref().unwrap_or(&empty);
        let before = lt.learnt_before.as_ref().unwrap_or(&empty);
        let diff_c = |n: &str| counter(after, n) - counter(before, n);
        let diff_h = |n: &str| hist_sum(after, n) - hist_sum(before, n);
        r.value(
            "admittance.retrains",
            "count",
            diff_c("admittance.retrains"),
            "episode, set-up excluded",
        );
        r.value(
            "admittance.smo_iterations",
            "count",
            diff_h("admittance.smo_iterations"),
            "summed over retrains",
        );
        r.value(
            "admittance.gram_incremental_rows",
            "count",
            diff_h("admittance.gram_incremental_rows"),
            "summed over retrains",
        );
        r.value(
            "admittance.warm_start_alphas",
            "count",
            diff_h("admittance.warm_start_alphas"),
            "summed over retrains",
        );
        r.value(
            "admittance.store_compactions",
            "count",
            diff_c("admittance.store_compactions"),
            "episode, set-up excluded",
        );
        r.value(
            "trainer.staleness_max",
            "count",
            last.staleness_max,
            "gateway.snapshot_staleness after each barrier",
        );
    }
    r.value(
        "trainer.obs_dropped",
        "count",
        counter(m, "gateway.obs_dropped"),
        "gateway.obs_dropped, last traced episode",
    );

    // driver and harness
    let mut gen_s = Samples::new();
    for t in timed {
        gen_s.push(t.ep.gen_ns as f64 / 1e9);
    }
    r.median("driver.gen_s", "s", &mut gen_s, "no episode");
    let env: f64 = timed.iter().map(|t| t.ep.env_ns as f64).sum();
    let lp: f64 = timed.iter().map(|t| t.ep.loop_ns as f64).sum();
    r.maybe(
        "driver.env_frac",
        "ratio",
        (lp > 0.0).then(|| env / lp),
        "bench-side time over tick-loop time",
        "no tick",
    );
    r.value(
        "timer.overhead_ns",
        "ns",
        timer_ns,
        "median Instant::now pair",
    );
    let mut traced_loop = Samples::new();
    let mut untraced_loop = Samples::new();
    for t in timed {
        if t.traced {
            traced_loop.push(t.ep.loop_ns as f64);
        } else {
            untraced_loop.push(t.ep.loop_ns as f64);
        }
    }
    r.maybe(
        "trace.overhead_frac",
        "ratio",
        traced_loop
            .median()
            .zip(untraced_loop.median())
            .map(|(t, u)| t / u - 1.0),
        &format!(
            "median traced over median untraced tick-loop time, {} + {} episodes",
            traced_loop.len(),
            untraced_loop.len()
        ),
        "needs traced and untraced episodes",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("exbox-loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}
