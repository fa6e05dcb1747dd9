//! In-process helpers of the repository benchmark (`perfbench/run.py`
//! drives them; see its header for the workloads and metrics).
//!
//! ```text
//! perfbench replay --db DIR --docs DIR --out FILE
//!     traced replay of the six CI commands against DIR (spans + counts)
//! perfbench load --addr A --db DIR --seconds S --seed N --out FILE
//!     closed-loop query load on a running `loupe serve`, every answer
//!     checked against the matrix stored in DIR
//! perfbench layers --db DIR --seed N --out FILE
//!     in-process serve layer timings: index build, decode, lookup, encode
//! ```
//!
//! Each writes one JSON document to `--out` and exits non-zero on error.

mod mix;
mod replay;
mod serve;
mod trace;

use std::path::Path;
use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?
        .parse()
        .map_err(|_| format!("bad value for {name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args
        .first()
        .ok_or("usage: perfbench replay|load|layers ...")?;
    let doc = match cmd.as_str() {
        "replay" => replay::run(
            Path::new(flag(args, "--db")?),
            Path::new(flag(args, "--docs")?),
        )?,
        "load" => serve::load(
            flag(args, "--addr")?,
            Path::new(flag(args, "--db")?),
            num(args, "--seconds")?,
            num(args, "--seed")?,
        )?,
        "layers" => serve::layers(Path::new(flag(args, "--db")?), num(args, "--seed")?)?,
        other => return Err(format!("unknown command `{other}`")),
    };
    let out = flag(args, "--out")?;
    std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
