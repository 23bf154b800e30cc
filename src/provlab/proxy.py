"""Edge proxy gateway and per-device network isolation.

Plays three roles at once: a mobile app toward the vendor cloud (signed
envelopes with keys recovered from the app assets), a cloud toward the
devices it fronts (they bind to it and take its commands), and a device
toward the real cloud (one upstream channel, which every fronted device's
frames share).  The isolation manager hands every device its own decoy
network so a compromised neighbor or a leaked cloud record never exposes
the real home credentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dpl, protocol
from .cloud import APP_ACTIONS, CloudUnreachable, DeviceChannels, VendorCloud
from .netsim import DuplicateSsid, PeerUnreachable, Simulation, StreamEnd, VirtualNetwork
from .protocol import TOKEN_ALPHABET, DeviceFrame, encode_frame, serve_frames
from .provisioner import (
    RESEND_ROUNDS,
    AppConfig,
    CloudClient,
    EnvelopeFactory,
    ProvisionerError,
    ProvisionOutcome,
)
from .signing import derive_signing_key, sign_envelope, verify_envelope

FAKE_SSID_PREFIX = "vdev-"
FAKE_PSK_CHARS = 16
REDACTED_NUMBER = 0.0
REDACTED_TEXT = "redacted"


class ProxyError(Exception):
    pass


class AlreadyAssigned(ProxyError):
    pass


class PolicyDenied(ProxyError):
    pass


class UpstreamRejected(ProxyError):
    pass


class LocalCommandRefused(ProxyError):
    """The device refused a local command; ``reason`` is its ack's."""

    reason = property(lambda self: self.args[0])


@dataclass
class ProxyPolicy:
    """What the proxy scrubs from an app envelope before it re-signs it.

    Each member of ``redact_fields`` becomes ``0.0`` if it holds a number
    (a boolean does not count) and ``"redacted"`` otherwise.  Only the
    registered actions of the gateway's own vendor, with a ``sign`` that
    verifies, pass, whatever the policy.
    """

    redact_fields: set[str] = field(default_factory=set)


class ProxyGateway:
    def __init__(
        self,
        sim: Simulation,
        config: AppConfig,
        directory: dict[str, VendorCloud],
        policy: ProxyPolicy | None = None,
        *,
        rng,
        home_ssid: str | None = None,
        endpoint_id: str = "proxy-gw",
        dns_available: bool = False,
        nonce_source=None,
    ):
        self.sim = sim
        self.policy = policy or ProxyPolicy()
        self.rng = rng
        self.home_ssid = home_ssid
        self.endpoint = sim.register(endpoint_id)
        self.channels = DeviceChannels(sim, self.endpoint, "local", self._on_device_frame)
        self.cloud_client = CloudClient(
            config, EnvelopeFactory(config, rng, nonce_source=nonce_source), directory,
            sim.clock, dns_available, {},
        )
        self.assignments: dict[str, VirtualNetwork] = {}
        self._upstream: StreamEnd | None = None  # opened by the first bind relayed
        self._binding: dict[str, StreamEnd] = {}  # device id -> stream awaiting its bind ack

    # -- isolation manager ------------------------------------------------------

    def allocate_virtual_network(self, device_id: str) -> VirtualNetwork:
        """Fresh decoy network for one device; the proxy joins it so it can
        broadcast provisioning traffic and reach the device afterwards."""
        if device_id in self.assignments:
            raise AlreadyAssigned(device_id)
        while True:
            ssid = FAKE_SSID_PREFIX + "".join(
                self.rng.choice("0123456789abcdef") for _ in range(4)
            )
            if ssid == self.home_ssid:
                continue
            passphrase = "".join(self.rng.choice(TOKEN_ALPHABET) for _ in range(FAKE_PSK_CHARS))
            try:
                net = self.sim.create_network(ssid, passphrase)
                break
            except DuplicateSsid:
                continue
        self.sim.join(self.endpoint, ssid, passphrase)
        self.assignments[device_id] = net
        return net

    # -- isolated provisioning ----------------------------------------------------

    def provision_isolated(
        self, device_id: str, token: str | None = None, idle_hook=None
    ) -> ProvisionOutcome:
        """Provision one device onto its decoy network with decoy credentials,
        re-broadcasting as :meth:`MobileApp.provision` does until it is online;
        the device registers with the cloud knowing nothing about the home."""
        net = self.assignments.get(device_id)
        if net is None:
            net = self.allocate_virtual_network(device_id)
        if token is None:
            try:
                token = self.cloud_client.request_token()["token"]
            except (ProvisionerError, CloudUnreachable) as exc:
                return ProvisionOutcome(False, error=str(exc))
        creds = dpl.Credentials(ssid=net.ssid, passphrase=net.passphrase, token=token)

        def send(rounds: int) -> None:
            self.sim.broadcast_lengths(self.endpoint, dpl.PROVISION_PORT,
                                       dpl.encode(creds, rounds), ssid=net.ssid)
            if idle_hook is not None:
                idle_hook()

        send(dpl.DEFAULT_ROUNDS)
        return self.cloud_client.wait_until_online(token, lambda: send(RESEND_ROUNDS))

    # -- app-side relay with policy -------------------------------------------------

    def relay_app_envelope(self, envelope: dict) -> dict:
        """Terminate an app request, verify it, scrub it per policy, forward."""
        action = envelope.get("a")
        if not isinstance(action, str) or action not in APP_ACTIONS:
            raise PolicyDenied(f"action {action!r} not allowed")
        client = self.cloud_client
        bundle = envelope.get("bundleId")
        if bundle != client.config.bundle_id:
            raise PolicyDenied(f"bundle {bundle!r}: the gateway holds no key for it")
        key = derive_signing_key(client.config.keys)
        if not verify_envelope(envelope, key):
            raise PolicyDenied("the envelope's sign does not verify")
        redact = self.policy.redact_fields & envelope.keys()
        if redact:
            envelope = dict(envelope)
            for name in redact:
                value = envelope[name]
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                envelope[name] = REDACTED_NUMBER if number else REDACTED_TEXT
            # it verified, so its signing string builds, and so does the scrubbed one's
            envelope[protocol.SIGN_FIELD] = sign_envelope(envelope, key)
        try:
            return client.post(client.resolve(), envelope)
        except (CloudUnreachable, ProvisionerError) as exc:
            raise UpstreamRejected(str(exc)) from exc

    # -- cloud-role toward devices / device-role toward cloud -------------------------

    def _on_device_frame(self, stream: StreamEnd, frame: DeviceFrame) -> None:
        bind = frame.kind == "bind"
        if bind:
            if frame.device_id not in self.assignments:
                # no decoy network of this gateway: refuse, and send nothing upstream
                stream.send(encode_frame(frame.reply(False, protocol.RejectReason.UNKNOWN.value)))
                return
            # the stream takes the device's channel only once the cloud accepts
            self._binding[frame.device_id] = stream
        try:
            self._open_upstream().send(encode_frame(frame))
        except (CloudUnreachable, ProvisionerError, PeerUnreachable):
            # dropped, as the serving side drops a frame it cannot take; a bind is answered
            if bind:
                self._binding.pop(frame.device_id, None)
                stream.send(encode_frame(frame.reply(False, "UpstreamUnreachable")))

    def _open_upstream(self) -> StreamEnd:
        """The gateway's one stream to the cloud, shared by every fronted device."""
        if self._upstream is None:
            cloud = self.cloud_client.resolve()
            self._upstream = self.sim.open_stream(self.endpoint, cloud.endpoint,
                                                  protocol.DEVICE_PORT)
            serve_frames(self._upstream, self._on_upstream_frame)
        return self._upstream

    def _on_upstream_frame(self, _upstream: StreamEnd, frame: DeviceFrame) -> None:
        # the cloud acks nothing but binds, so an ack answers the device's bind in flight
        down = self._binding.pop(frame.device_id, None) if frame.kind == "ack" else None
        if down is None:
            down = self.channels.stream_of(frame.device_id)
        elif frame.payload.get("success"):
            self.channels.bind(frame.device_id, down)
        if down is not None:
            down.send(encode_frame(frame))

    # -- offline local control --------------------------------------------------------

    def local_control(self, device_id: str, command: dict) -> dict:
        """Command the device directly over the proxy's device-side channel;
        works with the vendor cloud completely dark.  Returns the device's
        status, or raises :class:`LocalCommandRefused` if it refused."""
        ack = self.channels.command(device_id, command)
        if not ack.get("success", False):
            raise LocalCommandRefused(ack.get("reason", "CommandRejected"))
        return ack.get("status", {})
