//! `crowdtrace` — inspect and compare crowdkit obs streams.
//!
//! ```text
//! crowdtrace replay <stream.jsonl> [--folded <out.folded>]
//! crowdtrace diff <a.jsonl> <b.jsonl> [--quality-tol F] [--spend-tol F] [--latency-tol F]
//! crowdtrace top <stream.jsonl> [--watch SECS]
//! crowdtrace why <task-id> <stream.jsonl> [--exp ID] [--algo NAME]
//! crowdtrace audit <stream.jsonl> [--margin F]
//! ```
//!
//! Exit codes: `diff` exits 0 when the deterministic event bodies are
//! identical, 1 on divergence, 2 on a metric-threshold breach; usage
//! errors exit 64 and unreadable or malformed inputs exit 65 (the BSD
//! sysexits conventions).

#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use std::process::ExitCode;

use crowdkit_trace::diff::{first_divergence, metric_deltas, render_deltas, DeltaThresholds};
use crowdkit_trace::prov;
use crowdkit_trace::replay::replay;
use crowdkit_trace::stream::{complete_lines, parse_stream, LoadedStream};
use crowdkit_trace::top;

const USAGE: &str = "crowdtrace — inspect and compare crowdkit obs streams

USAGE:
  crowdtrace replay <stream.jsonl> [--folded <out.folded>]
      Rebuild per-experiment span trees from a stream and print a cost /
      wall-time attribution report. --folded also writes a collapsed-stack
      profile (one `frame;frame weight` line per stack) for flamegraph
      tooling.

  crowdtrace diff <a.jsonl> <b.jsonl> [--quality-tol F] [--spend-tol F] [--latency-tol F]
      Compare the deterministic event bodies of two streams, report the
      first divergent event (line numbers and keys), then report per-
      experiment metric deltas. Exit 0 = identical, 1 = divergent,
      2 = a configured relative threshold was breached.

  crowdtrace top <stream.jsonl> [--watch SECS]
      Fold the stream's events into one table per subsystem (the key
      prefix): for each event key, split by `algo` where the event has
      one, the event count and the total of every numeric field, plus
      p50/p95/max of each *_ns wall field when the stream kept them.
      --watch re-reads the file every SECS seconds, tolerating a
      partially written last line, until interrupted.

  crowdtrace why <task-id> <stream.jsonl> [--exp ID] [--algo NAME]
      Explain every inference decision recorded for one task: the
      contributing votes, final worker weights, posterior margin, label
      flip timeline, and what the task cost — one block per run whose
      prov.task lineage mentions the task (capture the stream with --log
      so detail events land). --exp / --algo narrow to one experiment or
      algorithm.

  crowdtrace audit <stream.jsonl> [--margin F]
      Suite-wide decision audit from the prov.* events: per-run summary
      table, contested tasks below the margin threshold (default 0.1),
      most-influential and most-overruled workers, and spend-per-correct-
      label by experiment.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("crowdtrace: {msg}\n\n{USAGE}");
            ExitCode::from(64)
        }
        Err(CliError::Data(msg)) => {
            eprintln!("crowdtrace: {msg}");
            ExitCode::from(65)
        }
    }
}

enum CliError {
    /// Bad invocation: unknown subcommand, missing or malformed flags.
    Usage(String),
    /// Good invocation, bad world: unreadable files, malformed streams.
    Data(String),
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    match cmd.as_str() {
        "replay" => cmd_replay(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "why" => cmd_why(&args[1..]),
        "audit" => cmd_audit(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// `--flag value` pairs pulled out of an argument list.
type Flags<'a> = Vec<(&'a str, &'a str)>;

/// Splits `args` into positionals and `--flag value` pairs, rejecting
/// flags outside `allowed`.
fn parse_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
) -> Result<(Vec<&'a str>, Flags<'a>), CliError> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(name) = arg.strip_prefix("--") {
            if !allowed.contains(&name) {
                return Err(CliError::Usage(format!("unknown flag `--{name}`")));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage(format!("flag `--{name}` needs a value")))?;
            flags.push((name, value.as_str()));
            i += 2;
        } else {
            positional.push(arg);
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

fn parse_f64_flag(flags: &[(&str, &str)], name: &str) -> Result<Option<f64>, CliError> {
    flag(flags, name)
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| CliError::Usage(format!("flag `--{name}` wants a number, got `{v}`")))
        })
        .transpose()
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Data(format!("cannot read `{path}`: {e}")))
}

fn load(path: &str) -> Result<LoadedStream, CliError> {
    let text = read_file(path)?;
    parse_stream(&text).map_err(|e| CliError::Data(format!("{path}: {e}")))
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, CliError> {
    let (positional, flags) = parse_flags(args, &["folded"])?;
    let [path] = positional[..] else {
        return Err(CliError::Usage(
            "replay wants exactly one stream path".into(),
        ));
    };
    let stream = load(path)?;
    let rep = replay(&stream);
    print!("{}", rep.render());
    if let Some(out) = flag(&flags, "folded") {
        let folded = rep.folded();
        std::fs::write(out, &folded)
            .map_err(|e| CliError::Data(format!("cannot write `{out}`: {e}")))?;
        println!("wrote {} collapsed stacks to {out}", folded.lines().count());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, CliError> {
    let (positional, flags) = parse_flags(args, &["quality-tol", "spend-tol", "latency-tol"])?;
    let [path_a, path_b] = positional[..] else {
        return Err(CliError::Usage(
            "diff wants exactly two stream paths".into(),
        ));
    };
    let a = load(path_a)?;
    let b = load(path_b)?;
    let thresholds = DeltaThresholds {
        quality: parse_f64_flag(&flags, "quality-tol")?,
        spend: parse_f64_flag(&flags, "spend-tol")?,
        latency: parse_f64_flag(&flags, "latency-tol")?,
    };
    let divergence = first_divergence(&a, &b);
    match &divergence {
        None => println!(
            "streams are identical on deterministic fields ({} events)",
            a.events.len()
        ),
        Some(d) => print!("A = {path_a}\nB = {path_b}\n{}", d.render()),
    }
    let (deltas, breached) = metric_deltas(&a, &b, &thresholds);
    print!("{}", render_deltas(&deltas));
    Ok(if breached {
        ExitCode::from(2)
    } else if divergence.is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_top(args: &[String]) -> Result<ExitCode, CliError> {
    let (positional, flags) = parse_flags(args, &["watch"])?;
    let [path] = positional[..] else {
        return Err(CliError::Usage("top wants exactly one stream path".into()));
    };
    let watch = match flag(&flags, "watch") {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| {
            CliError::Usage(format!("flag `--watch` wants whole seconds, got `{v}`"))
        })?),
    };
    let Some(secs) = watch else {
        let stream = load(path)?;
        print!("{}", top::collect(&stream).render());
        return Ok(ExitCode::SUCCESS);
    };
    // Watch mode: the writer may still be appending, so a torn final line
    // is expected — parse only up to the last complete newline, and on a
    // parse error keep the previous rendering rather than dying mid-run.
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                if let Ok(stream) = parse_stream(complete_lines(&text)) {
                    // Clear the terminal like top(1) so the table repaints
                    // in place.
                    print!("\x1b[2J\x1b[H{}", top::collect(&stream).render());
                    println!("\n(watching {path} every {secs}s — ^C to stop)");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                println!("(waiting for {path} to appear)");
            }
            Err(e) => return Err(CliError::Data(format!("cannot read `{path}`: {e}"))),
        }
        std::thread::sleep(std::time::Duration::from_secs(secs.max(1)));
    }
}

fn cmd_why(args: &[String]) -> Result<ExitCode, CliError> {
    let (positional, flags) = parse_flags(args, &["exp", "algo"])?;
    let [task, path] = positional[..] else {
        return Err(CliError::Usage(
            "why wants a task id and a stream path".into(),
        ));
    };
    let task: u64 = task
        .parse()
        .map_err(|_| CliError::Usage(format!("why wants a numeric task id, got `{task}`")))?;
    let view = prov::collect(&load(path)?);
    let out = prov::render_why(&view, task, flag(&flags, "exp"), flag(&flags, "algo"))
        .map_err(|e| CliError::Data(format!("{path}: {e}")))?;
    print!("{out}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_audit(args: &[String]) -> Result<ExitCode, CliError> {
    let (positional, flags) = parse_flags(args, &["margin"])?;
    let [path] = positional[..] else {
        return Err(CliError::Usage(
            "audit wants exactly one stream path".into(),
        ));
    };
    let margin = parse_f64_flag(&flags, "margin")?.unwrap_or(0.1);
    let view = prov::collect(&load(path)?);
    let out =
        prov::render_audit(&view, margin).map_err(|e| CliError::Data(format!("{path}: {e}")))?;
    print!("{out}");
    Ok(ExitCode::SUCCESS)
}
