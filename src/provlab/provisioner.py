"""Vendor-mobile-app emulator.

Resolves the cloud endpoint (simulated DNS with the hard-coded fallback
table the vendor apps carry), acquires a provisioning token through a
signed envelope, broadcasts credentials+token as a packet-length
sequence on port 30011, and drives device control through the cloud.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import dpl, protocol
from .cloud import API_PATH, CloudUnreachable, DeviceOffline, VendorCloud
from .netsim import SimClock, Simulation
from .signing import (
    SigningKeySet,
    derive_signing_key,
    open_postdata,
    seal_postdata,
    sign_envelope,
    verify_envelope,
)
from .stego import BmpImage, stego_extract

T_PROV_SECONDS = 30
POLL_INTERVAL = 2
RESEND_ROUNDS = 1  # credential rounds sent again before each wait between polls

# verbatim from the decompiled resolver, odd zero-padded octets included;
# in simulation these strings are directory keys, not routable addresses
HARDCODED_ENDPOINTS = {
    "IN": ["13.234.164.70", "13.234.09.49"],
    "AZ": ["35.167.213.203", "52.27.05.79"],
    "EU": ["52.29.0.171", "35.156.160.91"],
    "AY": ["162.14.14.134"],
}


class ProvisionerError(Exception):
    pass


class UnknownRegion(ProvisionerError):
    pass


class CloudRejected(ProvisionerError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def hardcoded_endpoints(region: str) -> list[str]:
    """The fallback table; unknown regions yield an empty list."""
    return list(HARDCODED_ENDPOINTS.get(region, []))


def resolve_cloud_endpoint(
    region: str,
    dns_available: bool,
    dns_answers: dict[str, list[str]],
    directory: dict[str, VendorCloud],
) -> tuple[str, VendorCloud]:
    """First reachable endpoint for the region: among its DNS answers when DNS
    is available, else in the hard-coded table, never both."""
    if dns_available:
        candidates = list(dns_answers.get(region, []))
    else:
        candidates = hardcoded_endpoints(region)
    if not candidates:
        raise UnknownRegion(f"no endpoints for region {region!r}")
    for address in candidates:
        cloud = directory.get(address)
        if cloud is not None and cloud.online:
            return address, cloud
    raise CloudUnreachable(f"no reachable endpoint among {candidates}")


def keys_from_bmp(image: BmpImage, seed: str, cert_hash: str, secret1: str) -> SigningKeySet:
    """Recover secret2 from the app's BMP asset and assemble the key set."""
    record, _report = stego_extract(image, seed)
    return SigningKeySet(
        cert_hash=cert_hash, secret1=secret1, secret2=record.keys[0].decode("utf-8")
    )


@dataclass
class AppConfig:
    """Who the emulated app is toward the cloud.  Its install (``deviceId``,
    ``sid``), location (``lat``, ``lon``) and ``timeZoneId`` are fixed
    values of the emulated app, written by :meth:`EnvelopeFactory.build`."""

    bundle_id: str
    client_id: str
    region: str
    user_id: str
    keys: SigningKeySet


class EnvelopeFactory:
    """Builds fully-populated signed request envelopes in the vendor shape;
    the field names are verbatim from the vendor API."""

    def __init__(self, config: AppConfig, rng, nonce_source=None):
        self.config = config
        self.rng = rng
        self.nonce_source = nonce_source
        self._seq = 0

    def _request_id(self) -> str:
        self._seq += 1
        tail = "".join(self.rng.choice("0123456789ABCDEF") for _ in range(12))
        return f"{self._seq:08d}-{tail}"

    def build(self, action: str, post_obj: dict, now: int) -> dict:
        cfg = self.config
        key = derive_signing_key(cfg.keys)
        envelope = {
            "time": now,
            "lang": "en",
            "deviceId": "CAAC4B69-A95B-4483-801D-000000000001",
            "et": "0.0.1",
            "osSystem": "14.2",
            "bundleId": cfg.bundle_id,
            "lon": -90.0,
            "channel": "oem",
            "appVersion": "1.1.2",
            "ttid": "appstore",
            "v": "1.0",
            "sid": "az16113405328608e6hqj3z3",
            "platform": "iPhone",
            "postData": seal_postdata(
                protocol.encode_sorted(post_obj).encode("utf-8"),
                key,
                nonce_source=self.nonce_source,
            ),
            "requestId": self._request_id(),
            "sdVersion": "3.20.1",
            "timeZoneId": "America/Chicago",
            "lat": 90.0,
            "clientId": cfg.client_id,
            "a": action,
            "appRnVersion": "5.29",
        }
        envelope["sign"] = sign_envelope(envelope, key)
        return envelope


@dataclass
class ProvisionOutcome:
    success: bool
    device_id: str | None = None
    error: str | None = None


@dataclass
class IssuedToken:
    value: str
    region: str
    acquired_at: int
    expires_in: int


@dataclass
class CloudClient:
    """The app's side of the signed-envelope exchange with the vendor cloud.

    The mobile app uses one; so does the proxy gateway, which plays the
    app toward the real cloud.
    """

    config: AppConfig
    envelopes: EnvelopeFactory
    directory: dict[str, VendorCloud]
    clock: SimClock
    dns_available: bool
    dns_answers: dict[str, list[str]]

    def resolve(self) -> VendorCloud:
        _addr, cloud = resolve_cloud_endpoint(
            self.config.region, self.dns_available, self.dns_answers, self.directory
        )
        return cloud

    def post(self, cloud: VendorCloud, envelope: dict) -> dict:
        """POST one envelope to ``cloud``'s app API; returns the parsed reply."""
        return json.loads(cloud.post(API_PATH, json.dumps(envelope)))

    def call(self, action: str, post_obj: dict) -> dict:
        """One signed request; returns the opened result or raises
        :class:`CloudRejected`."""
        cloud = self.resolve()
        envelope = self.envelopes.build(action, post_obj, self.clock.now)
        response = self.post(cloud, envelope)
        key = derive_signing_key(self.config.keys)
        if not response.get("success"):
            reason = response.get("result", {}).get("error", "Unknown")
            raise CloudRejected(reason)
        # responses are signed by the cloud too; check before trusting data
        if not verify_envelope(response, key):
            raise CloudRejected("response signature does not verify")
        return json.loads(open_postdata(response["result"], key))

    def request_token(self) -> dict:
        return self.call(
            protocol.ACTION_TOKEN_GET,
            {"region": self.config.region, "userId": self.config.user_id},
        )

    def wait_until_online(self, token: str, again=None) -> ProvisionOutcome:
        """Poll the cloud until the device bound with ``token`` shows up
        online, its bind is rejected, or the provisioning window lapses;
        ``again()``, if given, runs before each wait between polls."""
        deadline = self.clock.now + T_PROV_SECONDS
        while True:
            try:
                status = self.call(protocol.ACTION_DEVICE_STATUS, {"token": token})
            except (ProvisionerError, CloudUnreachable) as exc:
                return ProvisionOutcome(False, error=str(exc))
            if status.get("online"):
                return ProvisionOutcome(True, device_id=status.get("device_id"))
            if status.get("reject_reason"):
                return ProvisionOutcome(
                    False, error=f"BindRejected:{status['reject_reason']}"
                )
            if self.clock.now >= deadline:
                return ProvisionOutcome(False, error="Timeout")
            if again is not None:
                again()
            self.clock.advance(POLL_INTERVAL)


class MobileApp:
    def __init__(
        self,
        sim: Simulation,
        config: AppConfig,
        directory: dict[str, VendorCloud],
        rng,
        dns_available: bool = False,
        dns_answers: dict[str, list[str]] | None = None,
        endpoint_id: str | None = None,
        nonce_source=None,
    ):
        self.sim = sim
        self.clock = sim.clock
        self.config = config
        self.endpoint = sim.register(endpoint_id or f"app-{config.user_id}")
        self.envelopes = EnvelopeFactory(config, rng, nonce_source=nonce_source)
        self.cloud_client = CloudClient(
            config, self.envelopes, directory, sim.clock, dns_available, dns_answers or {}
        )

    # -- the four app-side operations -----------------------------------------

    def acquire_token(self) -> IssuedToken:
        result = self.cloud_client.request_token()
        return IssuedToken(
            value=result["token"],
            region=result["region"],
            acquired_at=self.clock.now,
            expires_in=result["expires_in"],
        )

    def broadcast_credentials(self, creds: dpl.Credentials, rounds: int = dpl.DEFAULT_ROUNDS) -> int:
        """Emit the packet-length sequence on port 30011; returns frame count."""
        return self.sim.broadcast_lengths(self.endpoint, dpl.PROVISION_PORT,
                                          dpl.encode(creds, rounds))

    def provision(
        self,
        creds: dpl.Credentials,
        rounds: int = dpl.DEFAULT_ROUNDS,
        idle_hook=None,
    ) -> ProvisionOutcome:
        """Broadcast credentials, then poll the cloud until the device shows
        up online or the provisioning window lapses, broadcasting
        :data:`RESEND_ROUNDS` more rounds before each wait.  ``idle_hook``
        runs after each broadcast."""
        def send(n: int) -> None:
            self.broadcast_credentials(creds, n)
            if idle_hook is not None:
                idle_hook()

        send(rounds)
        return self.cloud_client.wait_until_online(creds.token, lambda: send(RESEND_ROUNDS))

    def control_device(self, device_id: str, command: dict) -> dict:
        """app -> cloud -> device and back; never touches the device directly."""
        try:
            result = self.cloud_client.call(
                protocol.ACTION_DEVICE_CONTROL,
                {"device_id": device_id, "command": command},
            )
        except CloudRejected as exc:
            if exc.reason == "DeviceOffline":
                raise DeviceOffline(device_id) from exc
            raise
        return result["status"]
