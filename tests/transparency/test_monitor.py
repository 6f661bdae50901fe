"""Per-domain monitors: sublinear bandwidth + completeness."""

import pytest

from repro.core.adversary import ScanDroppingProver
from repro.core.errors import AuthenticationError
from repro.transparency.certs import CertificateStream
from repro.transparency.log_server import CTLogServer
from repro.transparency.monitor import DomainMonitor
from tests.conftest import make_p2_store


@pytest.fixture
def log():
    server = CTLogServer(make_p2_store(name_prefix="ct"))
    stream = CertificateStream(domain_count=40, seed=3)
    server._certs = list(stream.stream(250))
    for cert in server._certs:
        server.submit(cert)
    server.store.flush()
    return server


def test_first_poll_alerts_on_every_cert(log):
    monitor = DomainMonitor(log, "host0000")
    alerts = monitor.poll()
    assert alerts
    assert len({alert.hostname for alert in alerts}) == len(alerts)


def test_second_poll_is_quiet(log):
    monitor = DomainMonitor(log, "host0000")
    monitor.poll()
    assert monitor.poll() == []


def test_new_issuance_triggers_alert(log):
    monitor = DomainMonitor(log, "host0000")
    monitor.poll()
    fresh = CertificateStream(domain_count=40, seed=7)
    cert = next(c for c in fresh.stream(100) if c.hostname.startswith("host0000"))
    log.submit(cert)
    log.store.flush()
    alerts = monitor.poll()
    assert any(a.hostname == cert.log_key for a in alerts)


def test_bandwidth_is_sublinear(log):
    monitor = DomainMonitor(log, "host0000")
    monitor.poll()
    total_log_bytes = sum(
        len(c.log_key) + len(c.fingerprint) for c in log._certs
    )
    assert monitor.bytes_downloaded < total_log_bytes / 2


def test_malicious_omission_cannot_hide_certificates(log):
    """The paper's key monitor guarantee: a host cannot suppress a
    mis-issued certificate from a completeness-verified SCAN."""
    monitor = DomainMonitor(log, "host0000")
    log.store.compact_all()
    log.store.prover = ScanDroppingProver(log.store.db, drop_index=0)
    with pytest.raises(AuthenticationError):
        monitor.poll()
