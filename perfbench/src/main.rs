//! `vod-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics and writes the spans to
//! `perfbench/out/spans-<workload>.tsv`. `--record` prints the
//! `expected.tsv` lines of the seed instead.

use std::fs;
use std::io::BufWriter;
use std::process::ExitCode;

use vod_perfbench::bench;
use vod_perfbench::host;
use vod_perfbench::workload::Kind;

/// Where the traced run writes its spans, relative to the working
/// directory (the repository root).
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: vod-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--record]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vod-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.record {
        return record(&args);
    }
    if let Err(e) = host::keep_freed_memory() {
        eprintln!("vod-perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "host: nproc {}, cpu {}, one process, one thread",
        host::nproc(),
        host::cpu_model()
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = match bench::run(args.kind, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vod-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    if let Some(spans) = &report.spans {
        if let Err(e) = write_spans(args.kind, spans, &report.kept_spans) {
            eprintln!("vod-perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    for x in &report.metrics {
        println!("{:<28} {:>24} {}", x.name, x.value, x.unit);
    }
    if let Some(f) = &report.failure {
        println!("output check FAILED: {f}");
    }
    let metrics: Vec<String> = if report.correct {
        report
            .metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_spans(
    kind: Kind,
    spans: &vod_perfbench::span::SpanLog,
    keep: &[std::ops::Range<usize>],
) -> std::io::Result<()> {
    fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/spans-{}.tsv", kind.name());
    spans.write_tsv(BufWriter::new(fs::File::create(&path)?), keep)?;
    println!("spans written to {path}");
    Ok(())
}

/// Prints the `expected.tsv` lines of one round at the seed.
fn record(args: &Args) -> ExitCode {
    let plan = vod_perfbench::workload::Plan::new(args.kind, args.seed);
    let mut tr = vod_perfbench::span::NoTrace;
    let traces = plan.generate(&mut tr, 0, 0);
    for cell in &plan.cells {
        let (built, _) = vod_perfbench::workload::build(cell, false, &mut tr, 0, 0);
        let (out, _) =
            vod_perfbench::workload::replay(built, &traces[cell.trace].arrivals, &mut tr, 0, 0);
        if let Err(e) = out.check() {
            eprintln!("vod-perfbench: {}: {e}", cell.label);
            return ExitCode::FAILURE;
        }
        let c = vod_perfbench::expected::Counters::of(&out);
        println!("{}", c.line(args.kind.name(), args.seed, &cell.label));
    }
    ExitCode::SUCCESS
}
