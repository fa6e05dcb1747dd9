//! The serve wire protocol: length-prefixed JSON frames over TCP.
//!
//! A frame is a `u32` little-endian byte length followed by exactly
//! that many bytes of UTF-8 JSON. Requests and responses are flat
//! structs (a `cmd` discriminator plus optional fields) so any JSON
//! client can speak the protocol without a schema compiler; absent
//! fields default.
//!
//! Commands:
//!
//! | `cmd`      | asks                                            |
//! |------------|-------------------------------------------------|
//! | `ping`     | liveness + current index generation             |
//! | `verdict`  | will `app` run on `os` (`workload`, `tier`)?    |
//! | `verdicts` | many verdicts, answered from ONE index snapshot |
//! | `plan`     | cheapest support plan for `os` (`workload`)     |
//! | `missing`  | top missing syscalls blocking apps on `os`      |
//! | `summary`  | fleet pass-rate summary (OS_MATRIX rows)        |
//! | `apps`     | which apps require `syscall`                    |
//! | `stats`    | daemon counters (requests, rebuilds)            |

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

/// Frames larger than this are rejected — no legitimate query or
/// answer comes close, and the cap keeps a garbage length prefix from
/// allocating gigabytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects oversized payloads.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    // One write for prefix + payload: a frame never straddles two
    // small TCP segments (two writes + Nagle + delayed ACK stalls a
    // roundtrip for tens of milliseconds).
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean EOF before a length prefix —
/// the peer hung up between requests.
///
/// # Errors
///
/// I/O errors, truncated frames, oversized lengths, invalid UTF-8.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated frame length",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// One cell lookup inside a `verdicts` request.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CellQuery {
    /// OS name.
    pub os: String,
    /// Application name.
    pub app: String,
    /// Workload label (`health`/`bench`/`suite`); defaults to `health`.
    #[serde(default)]
    pub workload: Option<String>,
    /// Tier label (`vanilla`/`planned`); defaults to `planned`.
    #[serde(default)]
    pub tier: Option<String>,
}

/// A client request: `cmd` picks the command, the rest parameterise it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Request {
    /// Command discriminator (see module docs).
    pub cmd: String,
    /// OS name (`verdict`, `plan`, `missing`).
    #[serde(default)]
    pub os: Option<String>,
    /// Application name (`verdict`).
    #[serde(default)]
    pub app: Option<String>,
    /// Workload label; commands default to `health`.
    #[serde(default)]
    pub workload: Option<String>,
    /// Tier label; `verdict` defaults to `planned`.
    #[serde(default)]
    pub tier: Option<String>,
    /// Syscall name (`apps`).
    #[serde(default)]
    pub syscall: Option<String>,
    /// Result cap (`missing`); defaults to 10.
    #[serde(default)]
    pub limit: Option<u64>,
    /// Cells to look up (`verdicts`).
    #[serde(default)]
    pub cells: Vec<CellQuery>,
}

/// One resolved compatibility verdict.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Verdict {
    /// OS queried.
    pub os: String,
    /// Application queried.
    pub app: String,
    /// Workload label resolved.
    pub workload: String,
    /// Tier label resolved.
    pub tier: String,
    /// A measured matrix cell exists for this `(os, app, workload)`.
    pub known: bool,
    /// The app passes at the requested tier (`false` when unknown).
    pub pass: bool,
    /// The full-Linux reference verdict.
    pub linux_pass: bool,
    /// First syscall the restricted kernel rejected, when it failed.
    #[serde(default)]
    pub first_rejection: Option<String>,
    /// Required syscalls the OS does not implement.
    #[serde(default)]
    pub missing_required: Vec<String>,
}

/// One step of a served support plan.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanStepReply {
    /// 1-based step index.
    pub index: u64,
    /// Syscall names to implement for real.
    pub implement: Vec<String>,
    /// Syscall names to stub.
    pub stub: Vec<String>,
    /// Syscall names to fake.
    pub fake: Vec<String>,
    /// Application the step unlocks.
    pub unlocks: String,
}

/// The cheapest incremental support plan for one OS.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanReply {
    /// Target OS.
    pub os: String,
    /// Workload the requirements were distilled from.
    pub workload: String,
    /// Apps supported before any work.
    pub initially_supported: Vec<String>,
    /// Ordered steps, cheapest-first.
    pub steps: Vec<PlanStepReply>,
}

/// One missing-syscall ranking row.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MissingSyscall {
    /// Syscall name.
    pub syscall: String,
    /// Failing apps that require it.
    pub blocked_apps: u64,
}

/// One fleet summary row — mirrors an `OS_MATRIX.md` table row.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OsSummary {
    /// OS name.
    pub os: String,
    /// Workload label.
    pub workload: String,
    /// Syscalls the OS implements.
    pub syscalls: u64,
    /// Apps measured.
    pub apps: u64,
    /// Apps passing the full-Linux reference.
    pub linux_pass: u64,
    /// Apps passing out of the box.
    pub vanilla_pass: u64,
    /// Apps passing with the plan's stub/fake guidance.
    pub planned_pass: u64,
}

/// Daemon counters.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Index generation currently served.
    pub generation: u64,
    /// Matrix cells indexed.
    pub cells: u64,
    /// Distinct OSes indexed.
    pub oses: u64,
    /// Distinct apps indexed.
    pub apps: u64,
    /// Requests answered.
    pub requests: u64,
    /// Always 0: the daemon no longer batches lookups. Kept on the
    /// wire only for the benchmark helper that still reads it.
    pub batched_lookups: u64,
    /// Always 0, like `batched_lookups`, and kept for the same reader.
    pub batches: u64,
    /// Index rebuilds triggered by the generation watcher.
    pub rebuilds: u64,
}

/// A server response. `ok == false` carries `error`; everything else
/// fills the field matching the request's command.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Response {
    /// Did the request resolve?
    pub ok: bool,
    /// Failure reason when `ok == false`.
    #[serde(default)]
    pub error: Option<String>,
    /// Index generation the answer was computed from.
    #[serde(default)]
    pub generation: Option<u64>,
    /// `verdict` answer.
    #[serde(default)]
    pub verdict: Option<Verdict>,
    /// `verdicts` answers, in request order.
    #[serde(default)]
    pub verdicts: Vec<Verdict>,
    /// `plan` answer.
    #[serde(default)]
    pub plan: Option<PlanReply>,
    /// `missing` answer.
    #[serde(default)]
    pub missing: Vec<MissingSyscall>,
    /// `summary` answer.
    #[serde(default)]
    pub summary: Vec<OsSummary>,
    /// `apps` answer.
    #[serde(default)]
    pub apps: Vec<String>,
    /// `stats` answer.
    #[serde(default)]
    pub stats: Option<ServeStats>,
}

impl Response {
    /// A failure response.
    pub fn fail(error: impl Into<String>) -> Response {
        Response {
            ok: false,
            error: Some(error.into()),
            ..Response::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"cmd\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        let mut r = io::Cursor::new(vec![5, 0, 0, 0, b'a']);
        assert!(read_frame(&mut r).is_err(), "payload shorter than prefix");
        let mut r = io::Cursor::new(vec![1, 0]);
        assert!(read_frame(&mut r).is_err(), "truncated prefix");
        let mut r = io::Cursor::new((u32::MAX).to_le_bytes().to_vec());
        assert!(read_frame(&mut r).is_err(), "oversized length rejected");
    }

    #[test]
    fn requests_parse_with_defaults() {
        let req: Request =
            serde_json::from_str("{\"cmd\":\"verdict\",\"os\":\"kerla\",\"app\":\"redis\"}")
                .unwrap();
        assert_eq!(req.cmd, "verdict");
        assert_eq!(req.os.as_deref(), Some("kerla"));
        assert_eq!(req.workload, None);
        assert!(req.cells.is_empty());

        let text = serde_json::to_string(&Response::fail("nope")).unwrap();
        let resp: Response = serde_json::from_str(&text).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.error.as_deref(), Some("nope"));
    }
}
