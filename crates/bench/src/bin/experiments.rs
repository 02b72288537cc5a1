//! Experiment runner: regenerates every table/figure of the evaluation.
//!
//! ```text
//! experiments [all | e1 e2 …] [--quick] [--json DIR]
//! ```

use htims_bench::experiments::{self, ALL};
use std::io::Write;

/// Exits 2 naming the argument the runner cannot honour, before any
/// experiment runs.
fn refuse(what: String) -> ! {
    eprintln!(
        "experiments: {what} (use all, {}, --quick, --json <dir>)",
        ALL.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let mut quick = false;
    let mut all = false;
    let mut json_dir = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => match args.next() {
                Some(dir) if !dir.starts_with("--") => json_dir = Some(dir),
                _ => refuse("--json needs a directory".into()),
            },
            "all" => all = true,
            id if ALL.contains(&id) => ids.push(arg),
            other => refuse(format!("unknown argument '{other}'")),
        }
    }
    if ids.is_empty() || all {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }

    for id in &ids {
        let start = std::time::Instant::now();
        let table = experiments::run(id, quick).expect("ids are checked against ALL");
        println!("{}", table.render());
        println!(
            "[{} completed in {:.2}s]\n",
            id,
            start.elapsed().as_secs_f64()
        );
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{id}.json");
            let mut file = std::fs::File::create(&path).expect("create json file");
            file.write_all(table.to_json().as_bytes())
                .expect("write json");
        }
    }
}
