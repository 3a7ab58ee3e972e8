//! Run a single experiment by id.
//!
//! ```sh
//! cargo run --release --bin experiment -- fig23
//! cargo run --release --bin experiment -- list
//! cargo run --release --bin experiment -- fig21 --full
//! ```
//!
//! Any argument other than one id, `--full` and `--json` is a usage
//! error (exit 2); an unknown id exits 1.

use cryowire::experiments::{registry, Fidelity};

const USAGE: &str = "usage: experiment <id> [--full] [--json]";

fn main() {
    let mut fidelity = Fidelity::Quick;
    let mut json = false;
    let mut id: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => fidelity = Fidelity::Full,
            "--json" => json = true,
            _ if arg.starts_with('-') || id.is_some() => {
                die(&format!("unexpected argument `{arg}`"))
            }
            _ => id = Some(arg),
        }
    }

    match id.as_deref() {
        None | Some("list") => {
            println!("available experiments:");
            for e in registry() {
                println!("  {}", e.id);
            }
            println!("\n{USAGE}");
        }
        Some(id) => {
            let Some(e) = registry().iter().find(|e| e.id == id) else {
                eprintln!("unknown experiment `{id}`; try `experiment list`");
                std::process::exit(1);
            };
            let report = (e.run)(fidelity).report;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).expect("reports serialize")
                );
            } else {
                println!("{report}");
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("experiment: {msg}\n{USAGE}");
    std::process::exit(2);
}
