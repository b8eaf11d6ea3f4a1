//! `rebootlint` CLI.
//!
//! ```text
//! cargo run -p lint                      # check the whole workspace
//! cargo run -p lint -- --json report.json
//! cargo run -p lint -- --files a.rs ... # run every rule on fixtures
//! ```
//!
//! Exit status: 0 when no errors (warnings allowed), 1 on any error,
//! 2 on usage or I/O problems.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    json: Option<String>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                args.root = Some(PathBuf::from(v));
            }
            "--json" => {
                args.json = Some(it.next().unwrap_or_else(|| "-".to_string()));
            }
            "--files" => {
                args.files.extend(it.by_ref().map(PathBuf::from));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: rebootlint [--root DIR] [--json [FILE|-]] [--files FILE...]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let report = if args.files.is_empty() {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let root = args
            .root
            .clone()
            .or_else(|| lint::find_workspace_root(&cwd));
        let Some(root) = root else {
            eprintln!("rebootlint: no workspace root found (looked for a Cargo.toml with [workspace]); pass --root");
            return ExitCode::from(2);
        };
        lint::check_workspace(&root)
    } else {
        lint::check_files(&args.files)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rebootlint: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diags {
        print!("{}", d.render());
    }
    let summary = format!(
        "rebootlint: checked {} files: {} errors, {} warnings",
        report.files_scanned,
        report.errors(),
        report.warnings()
    );
    println!("{summary}");

    if let Some(dest) = &args.json {
        let json = lint::diag::to_json(&report.diags, report.files_scanned);
        if dest == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(dest, json) {
            eprintln!("rebootlint: writing {dest}: {e}");
            return ExitCode::from(2);
        }
    }

    if report.errors() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
