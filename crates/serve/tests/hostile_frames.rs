//! Hostile frames against a running daemon: every malformed or deeply
//! nested request gets an answer frame, and the daemon keeps serving.

use std::path::PathBuf;
use std::time::Duration;

use loupe_serve::{Client, Response, ServeConfig, Server};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loupe-serve-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn answer(client: &mut Client, payload: &str) -> Response {
    let json = client.request_raw(payload).expect("an answer frame");
    serde_json::from_str(&json).expect("the answer is a response")
}

#[test]
fn deeply_nested_frames_get_an_error_and_the_daemon_keeps_answering() {
    let dir = tmpdir("hostile-frames");
    let server = Server::start(
        &dir,
        ServeConfig {
            watch_interval: Duration::ZERO,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Duration::from_secs(30)).unwrap();
    let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);

    // Connection threads run on 64 KiB stacks: no frame may overflow one
    // and abort the whole process.
    for frame in [
        "[".repeat(2_000),
        "[".repeat(1 << 20),
        format!(r#"{{"cmd":"ping","pad":{}}}"#, nested(2_000)),
        format!(r#"{{"cmd":"ping","pad":{}}}"#, r#"{"a":"#.repeat(2_000)),
    ] {
        let response = answer(&mut client, &frame);
        assert!(!response.ok, "{} bytes answered ok", frame.len());
        assert!(response.error.is_some());
        assert_eq!(client.ping().unwrap(), 0, "the connection still answers");
    }

    // An unknown field nested exactly to the bound is skipped.
    let at_bound = format!(r#"{{"cmd":"ping","pad":{}}}"#, nested(serde::MAX_DEPTH - 1));
    assert!(answer(&mut client, &at_bound).ok);

    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.set_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(fresh.ping().unwrap(), 0, "new connections are served");
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
