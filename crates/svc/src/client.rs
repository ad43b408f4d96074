//! A small blocking HTTP client for the service plane.
//!
//! Used by the integration tests and the benchmark. Each request opens a
//! fresh connection with `connection: close` — boring and robust, which is
//! what a client measuring the *server* wants (connection reuse would
//! measure the client's socket pooling instead).

use crate::http::{self, HttpError};
use serde::Value;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

/// Per-request connect/read/write timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking client bound to one service URL and (optionally) one tenant.
#[derive(Debug, Clone)]
pub struct SvcClient {
    authority: String,
    tenant: Option<String>,
}

impl SvcClient {
    /// Creates a client for `http://host:port` (or a bare `host:port`).
    ///
    /// # Errors
    ///
    /// Fails on URLs with a scheme other than `http` or an empty authority.
    pub fn new(url: &str) -> Result<SvcClient, String> {
        let authority = match url.split_once("://") {
            Some(("http", rest)) => rest,
            Some((scheme, _)) => return Err(format!("unsupported scheme `{scheme}`")),
            None => url,
        };
        let authority = authority.trim_end_matches('/');
        if authority.is_empty() {
            return Err(format!("no host in url `{url}`"));
        }
        Ok(SvcClient {
            authority: authority.to_string(),
            tenant: None,
        })
    }

    /// Returns a copy sending `x-ayb-tenant: tenant` with every request.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &str) -> SvcClient {
        self.tenant = Some(tenant.to_string());
        self
    }

    /// Sends one request and returns `(status, parsed body)`. A non-JSON
    /// body (e.g. `/v1/metrics` text) comes back as [`Value::Str`].
    ///
    /// # Errors
    ///
    /// Connection, timeout, and protocol errors as strings.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Value), String> {
        let stream = TcpStream::connect(&self.authority)
            .map_err(|e| format!("connect {}: {e}", self.authority))?;
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(CLIENT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut headers = vec![
            ("host".to_string(), self.authority.clone()),
            ("connection".to_string(), "close".to_string()),
        ];
        if let Some(tenant) = &self.tenant {
            headers.push(("x-ayb-tenant".to_string(), tenant.clone()));
        }
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        http::write_request(&mut writer, method, path, &headers, body)
            .map_err(|e| format!("send {method} {path}: {e}"))?;
        let mut reader = BufReader::new(stream);
        let response = http::read_response(&mut reader).map_err(|e| match e {
            HttpError::Io(io) => format!("read {method} {path}: {io}"),
            other => format!("read {method} {path}: {other}"),
        })?;
        let text = response.text();
        let parsed = if response
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("application/json"))
        {
            serde_json::from_str::<Value>(&text).unwrap_or(Value::Str(text))
        } else {
            Value::Str(text)
        };
        Ok((response.status, parsed))
    }

    /// `POST /v1/runs` with a raw JSON body.
    ///
    /// # Errors
    ///
    /// As [`SvcClient::request`].
    pub fn submit_raw(&self, body: &str) -> Result<(u16, Value), String> {
        self.request("POST", "/v1/runs", Some(body))
    }

    /// Submits `{seed, scale}`.
    ///
    /// # Errors
    ///
    /// As [`SvcClient::request`].
    pub fn submit_seed(&self, seed: u64, scale: &str) -> Result<(u16, Value), String> {
        self.submit_raw(&format!("{{\"seed\": {seed}, \"scale\": \"{scale}\"}}"))
    }

    /// `GET /v1/runs/{id}`.
    ///
    /// # Errors
    ///
    /// As [`SvcClient::request`].
    pub fn run_status(&self, id: &str) -> Result<(u16, Value), String> {
        self.request("GET", &format!("/v1/runs/{id}"), None)
    }

    /// `GET /v1/runs/{id}/result`.
    ///
    /// # Errors
    ///
    /// As [`SvcClient::request`].
    pub fn run_result(&self, id: &str) -> Result<(u16, Value), String> {
        self.request("GET", &format!("/v1/runs/{id}/result"), None)
    }

    /// `POST /v1/runs/{id}/cancel`.
    ///
    /// # Errors
    ///
    /// As [`SvcClient::request`].
    pub fn cancel(&self, id: &str) -> Result<(u16, Value), String> {
        self.request("POST", &format!("/v1/runs/{id}/cancel"), None)
    }

    /// `GET /v1/metrics` as raw exposition text.
    ///
    /// # Errors
    ///
    /// As [`SvcClient::request`]; non-200 answers are errors here.
    pub fn metrics_text(&self) -> Result<String, String> {
        match self.request("GET", "/v1/metrics", None)? {
            (200, Value::Str(text)) => Ok(text),
            (status, _) => Err(format!("metrics endpoint answered {status}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_accepts_http_and_bare_authorities() {
        assert_eq!(
            SvcClient::new("http://127.0.0.1:8080/").unwrap().authority,
            "127.0.0.1:8080"
        );
        assert_eq!(
            SvcClient::new("127.0.0.1:8080").unwrap().authority,
            "127.0.0.1:8080"
        );
        assert!(SvcClient::new("tcp://127.0.0.1:1").is_err());
        assert!(SvcClient::new("http://").is_err());
    }
}
