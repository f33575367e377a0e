//! `smt-benchmark`: end-to-end and per-layer benchmark of the SMT
//! simulator, driven from outside through public functions only.
//!
//! One process measures one workload (so `peak_rss_mib` is per workload);
//! `run.sh` builds the two binaries and loops over the workloads. See
//! `README.md` beside this package for the metric glossary.

mod host;
mod layers;
mod measure;
mod replica;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use smt_stats::json::Json;

use crate::layers::{traced_run, Untraced};
use crate::measure::{median, min_max, percentile, Metric};
use crate::workloads::{
    golden_gate, run_hot, run_study_cold, run_study_resume, workloads, Budget, Kind, Outcome,
    Scale, Workload,
};

/// The release profile both binaries are built with (the root workspace's,
/// copied into this package's manifest).
const PROFILE: &str = "release: lto=fat codegen-units=1 debug=line-tables-only";

const USAGE: &str = "\
usage: smt-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                     [--trials N] [--smoke] [--repo-root DIR] [--out DIR]
                     [--untraced-bin PATH] [--rustc TEXT] [--git-rev TEXT]
       smt-benchmark --compare A/results.json B/results.json --bounds BENCHMARK.json
workloads: hotloop_standard hotloop_membound hotloop_riscv study_cold study_resume";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trials: Option<usize>,
    smoke: bool,
    repo_root: PathBuf,
    out: PathBuf,
    untraced_bin: Option<PathBuf>,
    rustc: String,
    git_rev: String,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        trials: None,
        smoke: false,
        repo_root: PathBuf::from("."),
        out: PathBuf::from("benchmark/out"),
        untraced_bin: None,
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
        compare: None,
        bounds: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number '{text}'"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: bad integer".to_string())?
            }
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--trials" => a.trials = Some(number(value()?)? as usize),
            "--smoke" => a.smoke = true,
            "--repo-root" => a.repo_root = PathBuf::from(value()?),
            "--out" => a.out = PathBuf::from(value()?),
            "--untraced-bin" => a.untraced_bin = Some(PathBuf::from(value()?)),
            "--rustc" => a.rustc = value()?,
            "--git-rev" => a.git_rev = value()?,
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--bounds" => a.bounds = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// Names of the exact metrics, recorded beside them for `--compare`.
fn exact_names(metrics: &[Metric]) -> Json {
    Json::array(metrics.iter().filter(|m| m.exact).map(|m| m.name))
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(o: &Outcome) -> Result<Vec<Metric>, String> {
    let wall = median(&o.walls);
    if o.setup_rss.is_empty() || o.trial_rss.is_empty() {
        return Err("cannot read VmHWM from /proc/self/status".into());
    }
    // Where the mark cannot be reset every sample is the process-wide peak
    // so far, and only the last one means anything.
    let pick = if host::reset_peak_rss() {
        median
    } else {
        |s: &[f64]| min_max(s).1
    };
    let rss = pick(&o.setup_rss).max(pick(&o.trial_rss));
    Ok(vec![
        Metric::new("wall_s", wall, "s"),
        Metric::new("wall_p90_s", percentile(&o.walls, 90.0), "s"),
        Metric::new("sim_kips", o.committed as f64 / wall / 1e3, "kinst/s"),
        Metric::new("cells_per_s", o.ops_per_trial as f64 / wall, "1/s"),
        Metric::new("peak_rss_mib", rss, "MiB"),
        Metric::new("setup_s", median(&o.setups), "s"),
        Metric::exact(
            "ipc",
            o.committed as f64 / o.cycles.max(1) as f64,
            "inst/cycle",
        ),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::object(metrics.iter().map(|m| {
        (
            m.name,
            Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        )
    }))
}

fn set(object: &mut Json, key: &str, value: Json) {
    if !matches!(object, Json::Object(_)) {
        *object = Json::object::<String, Json>([]);
    }
    let Json::Object(pairs) = object else {
        unreachable!("made an object above")
    };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => pairs.push((key.to_string(), value)),
    }
}

fn take(object: &Json, key: &str) -> Json {
    object.get(key).cloned().unwrap_or(Json::Null)
}

/// Merges this run's record into `<out>/results.json` under
/// `workloads.<name>.<section>`, keeping every other record.
fn store_record(out: &Path, workload: &str, section: &str, record: Json) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("results.json");
    let mut doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or(Json::Null);
    set(&mut doc, "benchmark", Json::from("smt-benchmark"));
    set(
        &mut doc,
        "comparable",
        Json::from(
            "numbers compare between runs on the same host only; see each record's provenance",
        ),
    );
    let mut all = take(&doc, "workloads");
    let mut entry = take(&all, workload);
    set(&mut entry, section, record);
    set(&mut all, workload, entry);
    set(&mut doc, "workloads", all);
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn provenance(a: &Args, scale: &Scale) -> Json {
    Json::object([
        ("host", host::fingerprint()),
        ("rustc", Json::from(a.rustc.as_str())),
        ("profile", Json::from(PROFILE)),
        ("traced_build", Json::from(cfg!(feature = "traced"))),
        ("git_rev", Json::from(a.git_rev.as_str())),
        ("seed", Json::from(a.seed)),
        ("seconds", Json::from(a.seconds)),
        ("smoke", Json::from(a.smoke)),
        ("hot_cycles", Json::from(scale.hot_cycles)),
        ("study_cycles", Json::from(scale.study_cycles)),
        ("jobs", Json::from(workloads::JOBS)),
    ])
}

/// Prints the human lines and, last, the one-line result the driver reads.
fn report(
    workload: &str,
    metrics: &[Metric],
    extra: &[Metric],
    attempted: u64,
    failed: u64,
    failures: &[String],
) {
    for m in metrics.iter().chain(extra) {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{workload} attempted {attempted} count");
    println!("{workload} failed {failed} count");
    for why in failures {
        eprintln!("{workload}: FAILED: {why}");
    }
    let line = Json::object([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{}", line.render());
}

fn run_untraced(a: &Args, w: &Workload, scale: &Scale, tmp: &Path) -> Result<bool, String> {
    golden_gate(&a.repo_root)?;
    let budget = Budget::new(a.seconds, a.trials);
    let o = match w.kind {
        Kind::Hot => run_hot(w, a.seed, scale, budget)?,
        Kind::StudyCold => run_study_cold(scale, budget, tmp)?,
        Kind::StudyResume => run_study_resume(scale, budget, tmp)?,
    };
    let metrics = end_to_end(&o)?;
    let (lo, hi) = min_max(&o.walls);
    let extra = [
        Metric::new("wall_s.trials", o.walls.len() as f64, "count"),
        Metric::new("wall_s.min", lo, "s"),
        Metric::new("wall_s.max", hi, "s"),
        Metric::new("setup_s.samples", o.setups.len() as f64, "count"),
    ];
    for (name, digest) in &o.digests {
        println!("{} {name} {digest:#018x} fnv64", w.name);
    }
    let record = Json::object([
        ("provenance", provenance(a, scale)),
        ("metrics", metrics_json(&metrics)),
        ("exact", exact_names(&metrics)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        (
            "digests",
            Json::object(
                o.digests
                    .iter()
                    .map(|(n, d)| (*n, Json::from(format!("{d:#018x}")))),
            ),
        ),
        (
            "samples",
            Json::object([
                ("wall_s", Json::array(o.walls.iter().copied())),
                ("setup_s", Json::array(o.setups.iter().copied())),
            ]),
        ),
    ]);
    store_record(&a.out, w.name, "end_to_end", record)?;
    report(w.name, &metrics, &extra, o.attempted, o.failed, &o.failures);
    Ok(o.failed == 0)
}

/// Runs the untraced binary for a few trials on the same workload and
/// seed: its median wall is the baseline of `trace.overhead_pct`, its
/// digests pin the traced build's outputs.
fn untraced_baseline(a: &Args, w: &Workload) -> Result<Untraced, String> {
    let bin = a
        .untraced_bin
        .as_ref()
        .ok_or("--trace 1 needs --untraced-bin (run.sh passes it)")?;
    let mut cmd = std::process::Command::new(bin);
    cmd.args(["--workload", w.name, "--trace", "0", "--trials", "3"])
        .args(["--seed", &a.seed.to_string()])
        .arg("--repo-root")
        .arg(&a.repo_root)
        .arg("--out")
        .arg(a.out.join("baseline"));
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "untraced baseline failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text
        .lines()
        .last()
        .ok_or("untraced baseline printed nothing")?;
    let wall_s = Json::parse(last)?
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or("untraced baseline printed no wall_s")?;
    let digests = text
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f[..] {
                [_, name, hex, "fnv64"] => {
                    let digest = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
                    Some((name.to_string(), digest))
                }
                _ => None,
            }
        })
        .collect();
    Ok(Untraced { wall_s, digests })
}

fn run_traced(a: &Args, w: &Workload, scale: &Scale, tmp: &Path) -> Result<bool, String> {
    if !cfg!(feature = "traced") {
        return Err(
            "--trace 1 needs the binary built with --features traced (run.sh builds it)".into(),
        );
    }
    golden_gate(&a.repo_root)?;
    let untraced = untraced_baseline(a, w)?;
    let (traced, tracer) = traced_run(w, a.seed, scale, &a.repo_root, tmp, &untraced)?;
    let metrics = &traced.metrics;
    let spans_file = format!("trace-{}.jsonl", w.name);
    let path = a.out.join(&spans_file);
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut writer = std::io::BufWriter::new(file);
    tracer
        .write_jsonl(&mut writer)
        .and_then(|()| std::io::Write::flush(&mut writer))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let record = Json::object([
        ("provenance", provenance(a, scale)),
        ("metrics", metrics_json(metrics)),
        ("exact", exact_names(metrics)),
        ("attempted", Json::from(traced.attempted)),
        ("failed", Json::from(traced.failed)),
        ("spans_file", Json::from(spans_file)),
    ]);
    store_record(&a.out, w.name, "per_layer", record)?;
    report(
        w.name,
        metrics,
        &[],
        traced.attempted,
        traced.failed,
        &traced.failures,
    );
    Ok(traced.failed == 0)
}

/// `--compare`: two `results.json` of the same commit, host and seed must
/// agree within each end-to-end metric's bound, and exactly on every
/// digest and every exact (simulated) metric of either pass.
fn compare(first: &Path, second: &Path, bounds: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b, spec) = (load(first)?, load(second)?, load(bounds)?);
    let bound_of = |name: &str| {
        spec.get("end_to_end")?
            .as_array()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let value = |record: &Json, name: &str| {
        record
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let mut ok = true;
    let workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("no workloads in the first file")?;
    for (workload, entry) in workloads {
        for section in ["end_to_end", "per_layer"] {
            let rb = b
                .get("workloads")
                .and_then(|ws| ws.get(workload))
                .and_then(|e| e.get(section));
            let (ra, rb) = match (entry.get(section), rb) {
                (Some(ra), Some(rb)) => (ra, rb),
                (None, None) => continue,
                _ => {
                    println!("{workload} {section} MISSING in one file");
                    ok = false;
                    continue;
                }
            };
            if ra.get("digests") != rb.get("digests") {
                println!("{workload} {section} digests DIFFER");
                ok = false;
            }
            let is_exact = |name: &str| {
                ra.get("exact")
                    .and_then(Json::as_array)
                    .is_some_and(|names| names.iter().any(|n| n.as_str() == Some(name)))
            };
            let metrics = ra
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or("record without metrics")?;
            for (name, _) in metrics {
                let (va, vb) = (value(ra, name), value(rb, name));
                let diff = (vb - va).abs() / va.abs() * 100.0;
                if is_exact(name) {
                    let same = va == vb;
                    println!(
                        "{workload} {name} {va} {vb} exact {}",
                        if same { "ok" } else { "DIFFERS" }
                    );
                    ok &= same;
                } else if section == "end_to_end" {
                    let bound = bound_of(name)
                        .ok_or_else(|| format!("{name} has no bound in {}", bounds.display()))?;
                    let within = diff <= bound * 100.0;
                    println!(
                        "{workload} {name} {va} {vb} diff {diff:.2}% bound {:.0}% {}",
                        bound * 100.0,
                        if within { "ok" } else { "EXCEEDS" }
                    );
                    ok &= within;
                } else {
                    println!("{workload} {name} {va} {vb} diff {diff:.2}% unbounded");
                }
            }
        }
    }
    Ok(ok)
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(a: &Args) -> Result<bool, String> {
    if let Some((first, second)) = &a.compare {
        let bounds = a
            .bounds
            .as_ref()
            .ok_or("--compare needs --bounds BENCHMARK.json")?;
        return compare(first, second, bounds);
    }
    let all = workloads(&a.repo_root);
    let w = all
        .iter()
        .find(|w| w.name == a.workload)
        .ok_or_else(|| format!("unknown workload '{}'\n{USAGE}", a.workload))?;
    let scale = if a.smoke { Scale::SMOKE } else { Scale::FULL };
    let scratch = Scratch(a.out.join(format!("tmp-{}", std::process::id())));
    if a.trace {
        run_traced(a, w, &scale, &scratch.0)
    } else {
        run_untraced(a, w, &scale, &scratch.0)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|a| run(&a));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("smt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
