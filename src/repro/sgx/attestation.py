"""Remote attestation (simulated).

Before trusting an eLSM deployment, a client verifies a *quote* binding
the enclave's code measurement to a genuine CPU (the paper's Appendix A:
"uses SGX's seal and attestation mechanism to verify the correct setup of
the enclave environment").  We simulate the attestation service with an
HMAC under a platform key that stands in for Intel's EPID/ECDSA signing.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass

#: Stand-in for the CPU's fused attestation key (known to "Intel" only).
_PLATFORM_KEY = hashlib.sha256(b"simulated-sgx-platform-key").digest()


@dataclass(frozen=True)
class Quote:
    """An attestation quote over (measurement, user report data)."""

    measurement: bytes
    report_data: bytes
    signature: bytes


def attest(enclave: "Enclave", report_data: bytes = b"") -> Quote:  # noqa: F821
    """Produce a quote binding the enclave measurement to the platform."""
    signature = hmac.new(
        _PLATFORM_KEY, enclave.measurement + report_data, hashlib.sha256
    ).digest()
    return Quote(
        measurement=enclave.measurement, report_data=report_data, signature=signature
    )


def verify_quote(quote: Quote, expected_measurement: bytes) -> bool:
    """Client-side verification against the expected code measurement."""
    if not hmac.compare_digest(quote.measurement, expected_measurement):
        return False
    expect = hmac.new(
        _PLATFORM_KEY, quote.measurement + quote.report_data, hashlib.sha256
    ).digest()
    return hmac.compare_digest(expect, quote.signature)
