//! `serve` — run the supervised multi-tenant tuning service over
//! localhost TCP.
//!
//! ```text
//! serve --dir DIR [--port P] [--workers N] [--queue N]
//!       [--demote-after N] [--timeout-s S]
//! ```
//!
//! Listens on `127.0.0.1:<port>` (an ephemeral port when `--port 0`),
//! writes the bound address to `DIR/serve.addr`, and speaks one JSON
//! request per line (see `tvm_service::proto`). On startup any job left
//! in flight by a previous instance is re-adopted and finished from its
//! journal. A `shutdown` request stops the listener and drains running
//! sessions gracefully.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tvm_service::proto::{handle_line, Response};
use tvm_service::service::{ServiceConfig, TuningService};

fn usage() -> ! {
    eprintln!(
        "usage: serve --dir DIR [--port P] [--workers N] [--queue N] \
         [--demote-after N] [--timeout-s S]"
    );
    std::process::exit(2);
}

struct Args {
    dir: std::path::PathBuf,
    port: u16,
    cfg: ServiceConfig,
}

fn parse_args() -> Args {
    let mut dir = None;
    let mut port = 0u16;
    let mut cfg = ServiceConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--dir" => dir = Some(std::path::PathBuf::from(val())),
            "--port" => port = val().parse().unwrap_or_else(|_| usage()),
            "--workers" => cfg.workers = val().parse().unwrap_or_else(|_| usage()),
            "--queue" => cfg.queue_capacity = val().parse().unwrap_or_else(|_| usage()),
            "--demote-after" => cfg.demote_after = val().parse().unwrap_or_else(|_| usage()),
            "--timeout-s" => {
                cfg.harness.timeout_s = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args {
        dir: dir.unwrap_or_else(|| usage()),
        port,
        cfg,
    }
}

fn serve_conn(
    stream: TcpStream,
    service: &TuningService,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(service, &line);
        let shutting_down = matches!(response, Response::ShuttingDown);
        serde_json::to_writer(&mut writer, &response)?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutting_down {
            stop.store(true, Ordering::Relaxed);
            return Ok(());
        }
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    let args = parse_args();
    let (service, recovery) = TuningService::open(&args.dir, args.cfg)?;
    if recovery.adopted > 0 || recovery.already_done > 0 {
        eprintln!(
            "serve: recovered {} in-flight job(s), {} already done",
            recovery.adopted, recovery.already_done
        );
    }

    let listener = TcpListener::bind(("127.0.0.1", args.port))?;
    let addr = listener.local_addr()?;
    std::fs::write(args.dir.join("serve.addr"), format!("{addr}\n"))?;
    eprintln!("serve: listening on {addr} (dir {})", args.dir.display());

    // Short accept timeout so a shutdown request is honoured promptly.
    listener.set_nonblocking(false)?;
    let stop = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match stream {
            Ok(conn) => {
                if let Err(e) = serve_conn(conn, &service, &stop) {
                    eprintln!("serve: connection error: {e}");
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(e) => {
                eprintln!("serve: accept error: {e}");
            }
        }
    }

    eprintln!("serve: draining running sessions");
    service.shutdown();
    let _ = std::fs::remove_file(args.dir.join("serve.addr"));
    Ok(())
}
