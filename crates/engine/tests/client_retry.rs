//! `ligra-serve --client`, the real binary, against a scripted socket:
//! a reply flagged `"transient":true` is retried with backoff and never
//! printed; the reply to the retry is. (Formerly phase 2 of
//! `scripts/chaos_smoke.sh`, which needed a `fault-inject` server to
//! produce the transient reply.)

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Command, Stdio};

#[test]
fn client_rides_out_a_transient_reply_and_prints_only_the_final_one() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // The server side: refuse the first copy of each distinct line
    // transiently (with a 1 ms hint), answer the second.
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("client connects");
        let mut writer = stream.try_clone().expect("clone");
        let mut seen: Vec<String> = Vec::new();
        for line in BufReader::new(stream).lines().map_while(Result::ok) {
            let reply = if seen.contains(&line) {
                format!("{{\"ok\":true,\"echo\":{}}}", seen.len())
            } else {
                "{\"ok\":false,\"error\":\"shed\",\"transient\":true,\"retry_after_ms\":1}".into()
            };
            seen.push(line);
            writeln!(writer, "{reply}").expect("reply");
        }
        seen
    });

    let mut client = Command::new(env!("CARGO_BIN_EXE_ligra-serve"))
        .args(["--client", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ligra-serve --client");
    client
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n")
        .expect("feed requests");
    let out = client.wait_with_output().expect("client exits at stdin EOF");
    assert!(out.status.success(), "client exited {:?}", out.status);

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, "{\"ok\":true,\"echo\":1}\n{\"ok\":true,\"echo\":3}\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("transient failure, retry 1/3").count(), 2, "{stderr}");
    // Each request went out twice; the blank line never did.
    let seen = server.join().expect("server thread");
    assert_eq!(
        seen,
        ["{\"op\":\"ping\"}", "{\"op\":\"ping\"}", "{\"op\":\"stats\"}", "{\"op\":\"stats\"}"]
    );
}
