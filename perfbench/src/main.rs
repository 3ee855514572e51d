//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! `[--out <dir>]`
//!
//! Runs one workload untraced (end-to-end metrics) or traced
//! (per-layer metrics). The last line of standard output is the JSON
//! result; the exit code is non-zero when a check fails or the run
//! cannot complete.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{report, Options, Scale, Workload};

const USAGE: &str =
    "usage: perfbench --workload <catalog-cold|catalog-warm|ward-serving|cohort-day> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::CatalogCold,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rendered = if opts.trace {
        perfbench::trace(&opts).map(|t| report::render_traced(&opts, &t))
    } else {
        perfbench::measure(&opts).map(|m| report::render_measured(&opts, &m))
    };
    match rendered {
        Ok((text, correct)) => {
            let mut stdout = std::io::stdout().lock();
            if stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush())
                .is_err()
            {
                return ExitCode::FAILURE;
            }
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
