"""The per-domain log monitor.

A vanilla CT monitor "continuously sends queries to the log server and
downloads all certificates"; eLSM "can enable lightweight log monitors
who only download the certificates of their own domain names, resulting
[in] low and sublinear bandwidth" (Section 5.7).  The monitor polls its
domain's key range with a verified-complete SCAN, diffing against what
it has already seen to detect new (possibly mis-issued) certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transparency.log_server import CTLogServer


@dataclass(frozen=True)
class MonitorAlert:
    """A newly observed certificate for the monitored domain."""

    hostname: bytes
    fingerprint: bytes


class DomainMonitor:
    """Watches one domain prefix for new certificate issuances."""

    def __init__(self, log: CTLogServer, domain_prefix: str) -> None:
        self.log = log
        self.domain_prefix = domain_prefix
        self._seen: dict[bytes, bytes] = {}
        self.bytes_downloaded = 0
        self.polls = 0

    def poll(self) -> list[MonitorAlert]:
        """One monitoring round; returns alerts for unseen certificates.

        The SCAN result is completeness-verified, so a malicious log host
        cannot hide a mis-issued certificate from the monitor.
        """
        self.polls += 1
        entries = self.log.download_domain(self.domain_prefix)
        self.bytes_downloaded += sum(len(k) + len(v) for k, v in entries)
        alerts: list[MonitorAlert] = []
        for hostname, fingerprint in entries:
            if self._seen.get(hostname) != fingerprint:
                alerts.append(
                    MonitorAlert(hostname=hostname, fingerprint=fingerprint)
                )
                self._seen[hostname] = fingerprint
        return alerts
