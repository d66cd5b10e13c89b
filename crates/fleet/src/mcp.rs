//! A thin MCP (Model Context Protocol) stdio adapter over the fleet.
//!
//! MCP's stdio transport is newline-delimited JSON-RPC 2.0: one message
//! per line on stdin, one response per line on stdout (notifications get
//! none). The adapter exposes two tools backed by the same client
//! library the gateway uses:
//!
//! * `lca_query` — arguments are a wire-protocol query request verbatim
//!   (`session`, `query`, and the `kind`/`family`/`n`/`seed` spec fields
//!   on first touch); routed by session name like any gateway request.
//! * `lca_stats` — no arguments; the fleet stats rollup.
//!
//! Tool results carry the backend's JSON response line as text content,
//! with `isError` set for protocol-level errors — an MCP host sees the
//! same typed error codes every other client does.

use serde::Json;

use crate::router::Fleet;

/// The MCP protocol revision this adapter implements.
pub const MCP_PROTOCOL_VERSION: &str = "2024-11-05";

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn s(text: &str) -> Json {
    Json::Str(text.to_owned())
}

/// A JSON-RPC response envelope around `body` (a `result` or `error`
/// pair), echoing `id`.
fn envelope(id: Json, key: &str, body: Json) -> String {
    let mut out = String::new();
    obj(vec![("jsonrpc", s("2.0")), ("id", id), (key, body)]).render(&mut out);
    out
}

fn rpc_error(id: Json, code: i64, message: &str) -> String {
    envelope(
        id,
        "error",
        obj(vec![
            ("code", Json::Num(code as f64)),
            ("message", s(message)),
        ]),
    )
}

/// A tool result: the response line as text content, `isError` for typed
/// protocol errors (MCP's convention: tool failures are results, not
/// JSON-RPC errors, so the model can read them).
fn tool_result(id: Json, line: &str, is_error: bool) -> String {
    envelope(
        id,
        "result",
        obj(vec![
            (
                "content",
                Json::Arr(vec![obj(vec![("type", s("text")), ("text", s(line))])]),
            ),
            ("isError", Json::Bool(is_error)),
        ]),
    )
}

/// The `tools/list` payload: both tool declarations with their input
/// schemas (mirrored in `docs/PROTOCOL.md`).
fn tools_json() -> Json {
    let query_schema = obj(vec![
        ("type", s("object")),
        (
            "properties",
            obj(vec![
                (
                    "session",
                    obj(vec![("type", s("string")), ("description", s("session name; routes to a backend by deterministic hash"))]),
                ),
                (
                    "query",
                    obj(vec![("type", s("integer")), ("description", s("vertex (classic kinds) — use u/v for spanner edge queries"))]),
                ),
                ("u", obj(vec![("type", s("integer"))])),
                ("v", obj(vec![("type", s("integer"))])),
                (
                    "kind",
                    obj(vec![("type", s("string")), ("description", s("mis | matching | spanner3 | spanner5 (spec; required on first touch)"))]),
                ),
                ("family", obj(vec![("type", s("string"))])),
                ("n", obj(vec![("type", s("integer"))])),
                ("seed", obj(vec![("type", s("integer"))])),
                ("knob", obj(vec![("type", s("number"))])),
                ("max_probes", obj(vec![("type", s("integer"))])),
                ("deadline_ms", obj(vec![("type", s("integer"))])),
            ]),
        ),
        ("required", Json::Arr(vec![s("session")])),
    ]);
    let stats_schema = obj(vec![("type", s("object")), ("properties", obj(vec![]))]);
    Json::Arr(vec![
        obj(vec![
            ("name", s("lca_query")),
            (
                "description",
                s("Query a local-computation-algorithm session (MIS, maximal matching, or spanner membership) served by the lca fleet. Answers are deterministic for a (kind, family, n, seed) spec."),
            ),
            ("inputSchema", query_schema),
        ]),
        obj(vec![
            ("name", s("lca_stats")),
            (
                "description",
                s("Fleet-wide serving statistics: per-backend snapshots plus the rollup (request counters, cache hit rates, routing histogram)."),
            ),
            ("inputSchema", stats_schema),
        ]),
    ])
}

/// Handles one stdin line; `None` means no response (a notification or
/// blank line).
pub fn handle_message(fleet: &Fleet, line: &str) -> Option<String> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let Ok(message) = serde_json::from_str(line) else {
        return Some(rpc_error(Json::Null, -32700, "parse error"));
    };
    let id = message.get("id").cloned().unwrap_or(Json::Null);
    let method = message.get("method").and_then(Json::as_str).unwrap_or("");
    match method {
        "initialize" => Some(envelope(
            id,
            "result",
            obj(vec![
                ("protocolVersion", s(MCP_PROTOCOL_VERSION)),
                ("capabilities", obj(vec![("tools", obj(vec![]))])),
                (
                    "serverInfo",
                    obj(vec![
                        ("name", s("lca-mcp")),
                        ("version", s(env!("CARGO_PKG_VERSION"))),
                    ]),
                ),
            ]),
        )),
        "ping" => Some(envelope(id, "result", obj(vec![]))),
        "tools/list" => Some(envelope(id, "result", obj(vec![("tools", tools_json())]))),
        "tools/call" => {
            let params = message.get("params").cloned().unwrap_or(Json::Null);
            let name = params.get("name").and_then(Json::as_str).unwrap_or("");
            match name {
                "lca_query" => {
                    let arguments = params
                        .get("arguments")
                        .cloned()
                        .unwrap_or(Json::Obj(Vec::new()));
                    let mut body = String::new();
                    arguments.render(&mut body);
                    let reply = fleet.query(&body);
                    Some(tool_result(id, &reply.body, reply.status != 200))
                }
                "lca_stats" => {
                    let reply = fleet.stats(Vec::new());
                    Some(tool_result(id, &reply.body, reply.status != 200))
                }
                _ => Some(rpc_error(id, -32602, "unknown tool")),
            }
        }
        m if m.starts_with("notifications/") => None,
        _ => Some(rpc_error(id, -32601, "method not found")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Fleet {
        // An unreachable backend: tool plumbing is testable without one
        // because gateway-level errors short-circuit before dialing.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        Fleet::new(vec![addr])
    }

    #[test]
    fn initialize_and_tools_list_round_trip() {
        let fleet = fleet();
        let response = handle_message(
            &fleet,
            r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#,
        )
        .expect("initialize answers");
        let parsed = serde_json::from_str(&response).unwrap();
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(1));
        let result = parsed.get("result").expect("result");
        assert_eq!(
            result.get("protocolVersion").and_then(Json::as_str),
            Some(MCP_PROTOCOL_VERSION)
        );
        assert!(
            handle_message(
                &fleet,
                r#"{"jsonrpc":"2.0","method":"notifications/initialized"}"#
            )
            .is_none(),
            "notifications get no response"
        );
        let response = handle_message(&fleet, r#"{"jsonrpc":"2.0","id":2,"method":"tools/list"}"#)
            .expect("tools/list answers");
        let parsed = serde_json::from_str(&response).unwrap();
        let tools = parsed
            .get("result")
            .and_then(|r| r.get("tools"))
            .and_then(Json::as_array)
            .expect("tools array");
        let names: Vec<&str> = tools
            .iter()
            .filter_map(|t| t.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["lca_query", "lca_stats"]);
    }

    #[test]
    fn tool_errors_surface_as_is_error_results() {
        let fleet = fleet();
        // Missing session: the router's typed 400, delivered as an MCP
        // tool result with isError.
        let response = handle_message(
            &fleet,
            r#"{"jsonrpc":"2.0","id":3,"method":"tools/call","params":{"name":"lca_query","arguments":{"query":1}}}"#,
        )
        .expect("tools/call answers");
        let parsed = serde_json::from_str(&response).unwrap();
        let result = parsed.get("result").expect("result, not a JSON-RPC error");
        assert_eq!(result.get("isError").and_then(Json::as_bool), Some(true));
        let text = result
            .get("content")
            .and_then(Json::as_array)
            .and_then(|c| c.first())
            .and_then(|c| c.get("text"))
            .and_then(Json::as_str)
            .expect("text content");
        assert!(text.contains("bad-request"), "{text}");
        // Unknown tools and methods are JSON-RPC errors.
        let response = handle_message(
            &fleet,
            r#"{"jsonrpc":"2.0","id":4,"method":"tools/call","params":{"name":"nope"}}"#,
        )
        .unwrap();
        assert!(serde_json::from_str(&response)
            .unwrap()
            .get("error")
            .is_some());
        let response =
            handle_message(&fleet, r#"{"jsonrpc":"2.0","id":5,"method":"nope"}"#).unwrap();
        assert!(serde_json::from_str(&response)
            .unwrap()
            .get("error")
            .is_some());
    }
}
