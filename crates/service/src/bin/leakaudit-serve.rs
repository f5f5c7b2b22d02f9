//! `leakaudit-serve` — the long-running leakage-audit daemon.
//!
//! Speaks the newline-delimited JSON protocol of
//! [`leakaudit_service::Daemon`] over stdin/stdout (default) or a TCP
//! socket, so repeated queries from many clients hit one warm
//! content-addressed result cache.
//!
//! ```text
//! leakaudit-serve [--stdio] [--tcp ADDR:PORT] [--cache-dir DIR]
//!                 [--capacity-bytes N] [--threads N]
//! ```
//!
//! * `--cache-dir DIR`: attach the on-disk store (one checksummed
//!   `leakaudit-result/v2` entry per `ab/cd/<key>.json` file; entries of
//!   any other schema read as misses and are overwritten when recomputed).
//! * `--capacity-bytes N`: bound the in-memory cache, evicting the
//!   least-recently-used entries (default unbounded).
//! * `--threads N`: executor worker count (default: all cores).
//!
//! Example session (stdio; `stream` pushes one line per cell as each
//! analysis lands, `submit_sweep` takes an optional per-request
//! `config` override — see `leakaudit_service::daemon`):
//!
//! ```text
//! $ printf '%s\n' '{"op":"submit_sweep","registry":"default"}' \
//!                 '{"op":"stream","job":0}' \
//!                 '{"op":"ack","job":0}' \
//!                 '{"op":"shutdown"}' | leakaudit-serve
//! {"ok":true,"job":0,"cells":45}
//! {"ok":true,"job":0,"cell":0,"id":"square-and-multiply[stride=0x40,b=6]",...}
//! ... one line per cell ...
//! {"ok":true,"job":0,"stream_done":true,"cells":45,"computed":29,"reused":0,"shared_pass":16,...}
//! {"ok":true,"job":0,"acked":true}
//! {"ok":true,"shutting_down":true}
//! ```

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

use leakaudit_service::{Daemon, SweepEngine};

struct Args {
    tcp: Option<String>,
    cache_dir: Option<String>,
    capacity_bytes: Option<u64>,
    threads: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: leakaudit-serve [--stdio] [--tcp ADDR:PORT] [--cache-dir DIR]\n\
         \x20                      [--capacity-bytes N] [--threads N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        tcp: None,
        cache_dir: None,
        capacity_bytes: None,
        threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                usage()
            })
        };
        match a.as_str() {
            "--stdio" => args.tcp = None,
            "--tcp" => args.tcp = Some(value_of("--tcp")),
            "--cache-dir" => args.cache_dir = Some(value_of("--cache-dir")),
            "--capacity-bytes" => {
                args.capacity_bytes = Some(
                    value_of("--capacity-bytes")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--threads" => {
                args.threads = Some(value_of("--threads").parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    let mut engine = SweepEngine::new();
    if let Some(threads) = args.threads {
        engine = engine.with_threads(threads);
    }
    if let Some(bytes) = args.capacity_bytes {
        engine = engine.with_eviction(bytes);
    }
    if let Some(dir) = &args.cache_dir {
        engine = engine.with_disk_cache(dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache dir {dir}: {e}");
            std::process::exit(1);
        });
    }
    let daemon = Arc::new(Daemon::new(engine));

    match &args.tcp {
        None => serve_stdio(&daemon),
        Some(addr) => serve_tcp(&daemon, addr),
    }
}

/// Pumps requests line by line from stdin to stdout until EOF or a
/// `shutdown` request. Each response line (a `stream` request pushes
/// several) is flushed as soon as the daemon emits it, so a streaming
/// client sees cells while the sweep is still computing.
fn serve_stdio(daemon: &Daemon) {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let mut failed = false;
        daemon.handle_line_into(&line, &mut |response| {
            failed = failed
                || writeln!(stdout, "{response}")
                    .and_then(|()| stdout.flush())
                    .is_err();
        });
        if failed || daemon.is_shutdown() {
            break;
        }
    }
}

/// Accepts connections until a `shutdown` request lands on any of them;
/// every connection shares the daemon (and thus the warm cache).
///
/// Shutdown exits the process right after the response is flushed: the
/// accept loop is parked in a blocking `accept` and other connections
/// may be parked in reads, so draining them could take forever. There
/// is no state to lose — computed results were already written to the
/// disk store at collection time (atomic renames).
fn serve_tcp(daemon: &Arc<Daemon>, addr: &str) {
    let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "leakaudit-serve: listening on {}",
        listener
            .local_addr()
            .map_or_else(|_| addr.to_string(), |a| a.to_string())
    );
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if daemon.is_shutdown() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let daemon = Arc::clone(daemon);
            scope.spawn(move || {
                let mut writer = match stream.try_clone() {
                    Ok(w) => w,
                    Err(_) => return,
                };
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    if line.trim().is_empty() {
                        continue;
                    }
                    let mut failed = false;
                    daemon.handle_line_into(&line, &mut |response| {
                        failed = failed
                            || writeln!(writer, "{response}")
                                .and_then(|()| writer.flush())
                                .is_err();
                    });
                    if daemon.is_shutdown() {
                        std::process::exit(0);
                    }
                    if failed {
                        break;
                    }
                }
            });
        }
    });
}
