//! pipebench — one end-to-end benchmark of the store-attached gscope
//! hub: producer → wire → hub shard (parse, route, store tee, fan-out)
//! → scope buffer → tick → frame-cache render, with the store and its
//! compactor running behind it.
//!
//! ```text
//! pipebench --workload live|flood|history --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end ones with
//! `--trace 0`, the per-layer ones (from a separate traced run) with
//! `--trace 1`. See `README.md` beside this package for the workloads
//! and what each metric means.

mod clock;
mod gen;
mod history;
mod hub;
mod inputs;
mod stats;
mod wire;

use std::collections::HashMap;
use std::str::FromStr;

/// `--key value` command-line arguments.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    /// The value of `--key`, parsed.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.0.get(key).ok_or_else(|| format!("missing --{key}"))?;
        raw.parse()
            .map_err(|_| format!("bad value {raw:?} for --{key}"))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (role, rest) = match argv.first().map(String::as_str) {
        Some("gen") => ("gen", &argv[1..]),
        _ => ("hub", &argv[..]),
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}\n{}", hub::USAGE);
            std::process::exit(2);
        }
    };
    let code = match role {
        "gen" => gen::main(&args),
        _ => hub::main(&args),
    };
    std::process::exit(code);
}
