"""IoT device state machine.

Listens for credential broadcasts on port 30011, one decoder per sender,
until it has decoded credentials, applies the length-only token check,
joins whatever SSID it decoded (it has no way to tell a real home
network from a decoy), binds to the cloud over a stream, then obeys
command frames.  The local
listener on the device's own port is deliberately credulous: any
network member that can reach it and speaks the framing is obeyed,
which is the replay/hijack surface the isolation mitigation closes.
"""

from __future__ import annotations

from enum import Enum
from functools import partial

from . import dpl, protocol
from .netsim import NetSimError, PeerUnreachable, Simulation, StreamEnd
from .protocol import DeviceFrame, encode_frame, serve_frames

VALID_POWER = ("on", "off")
BRIGHTNESS_RANGE = (0, 100)


class DevicePhase(Enum):
    UNPROVISIONED = "Unprovisioned"
    CREDS_RECEIVED = "CredsReceived"
    CREDS_REJECTED = "CredsRejected"
    WIFI_JOINED = "WifiJoined"
    BIND_PENDING = "BindPending"
    REGISTERED = "Registered"
    REGISTER_FAILED = "RegisterFailed"


class IoTDevice:
    def __init__(
        self,
        sim: Simulation,
        device_id: str,
        cloud_endpoint: str,
        bundle_id: str = "com.xyz.smart",
    ):
        self.sim = sim
        self.clock = sim.clock
        self.device_id = device_id
        self.cloud_endpoint = cloud_endpoint
        self.bundle_id = bundle_id
        self.endpoint = sim.register(device_id)
        self.phase = DevicePhase.UNPROVISIONED
        self.creds: dpl.Credentials | None = None
        self.attributes = {"power": "off", "brightness": 0}
        self.bank = dpl.DecoderBank()
        self.events: list[dict] = []
        sim.set_datagram_handler(self.endpoint, dpl.PROVISION_PORT, self._on_run)
        protocol.listen_frames(sim, self.endpoint, self._on_local_frame)  # garbage is dropped
        self._log("boot", "listening for provisioning broadcasts")

    # -- provisioning ---------------------------------------------------------

    def _on_run(self, src: str, lengths) -> tuple:
        # runs only while Unprovisioned: _on_credentials closes the port first
        taken, state = self.bank.feed(src, lengths)
        if state.phase is dpl.COMPLETE:
            return taken, partial(self._on_credentials, state.credentials)
        return taken, None

    def idle(self) -> None:
        """The decode window closed with no more frames arriving; settle."""
        if self.phase is DevicePhase.UNPROVISIONED:
            state = self.bank.finalize()
            if state is not None:
                self._on_credentials(state.credentials)

    def _on_credentials(self, creds: dpl.Credentials) -> None:
        # the only way out of Unprovisioned: stop listening for broadcasts
        self.sim.set_datagram_handler(self.endpoint, dpl.PROVISION_PORT, None)
        self.creds = creds
        self._set_phase(DevicePhase.CREDS_RECEIVED, f"ssid={creds.ssid}")
        if not protocol.device_token_check(creds.token):
            # wrong-length token: indicate and go quiet, never touch the net
            self._set_phase(
                DevicePhase.CREDS_REJECTED, f"token length {len(creds.token)} != 32"
            )
            return
        try:
            self.sim.join(self.endpoint, creds.ssid, creds.passphrase)
        except NetSimError as exc:
            self._log("wifi_join_failed", str(exc))
            return
        for ssid in self.sim.networks_of(self.endpoint) - {creds.ssid}:
            self.sim.leave(self.endpoint, ssid)
        self._set_phase(DevicePhase.WIFI_JOINED, creds.ssid)
        self._bind(creds)

    def _bind(self, creds: dpl.Credentials) -> None:
        try:
            stream = self.sim.open_stream(
                self.endpoint, self.cloud_endpoint, protocol.DEVICE_PORT
            )
        except PeerUnreachable as exc:
            self._log("cloud_unreachable", str(exc))
            self._set_phase(DevicePhase.REGISTER_FAILED, "cloud unreachable")
            return
        serve_frames(stream, self._on_cloud_frame)
        self._set_phase(DevicePhase.BIND_PENDING, "bind sent")
        frame = DeviceFrame(
            kind="bind",
            device_id=self.device_id,
            token=creds.token,
            payload={
                "ssid": creds.ssid,
                "passphrase": creds.passphrase,
                "bundle_id": self.bundle_id,
            },
        )
        stream.send(encode_frame(frame))

    def _on_cloud_frame(self, stream: StreamEnd, frame: DeviceFrame) -> None:
        if frame.kind == "ack" and self.phase is DevicePhase.BIND_PENDING:
            if frame.payload.get("success"):
                self._set_phase(DevicePhase.REGISTERED, "cloud accepted bind")
            else:
                reason = frame.payload.get("reason", "?")
                self._set_phase(DevicePhase.REGISTER_FAILED, f"cloud reject: {reason}")
        elif frame.kind == "command":
            stream.send(encode_frame(self.handle_command(frame)))

    # -- command handling -------------------------------------------------------

    def handle_command(self, frame: DeviceFrame) -> DeviceFrame:
        """Cloud-path command handling: requires a completed registration."""
        if self.phase is not DevicePhase.REGISTERED:
            reason = "NotRegistered"
        else:
            reason = self.apply_command(frame.payload.get("command", {}))
        return frame.reply(reason is None, reason, status=dict(self.attributes))

    def apply_command(self, command: dict) -> str | None:
        """Apply all of ``command`` or none of it; the reject reason, if any."""
        if not isinstance(command, dict) or not command:
            return "UnknownCommand"
        staged = {}
        for key, value in command.items():
            if key == "power" and value in VALID_POWER:
                staged[key] = value
            elif (
                key == "brightness"
                and type(value) is int
                and BRIGHTNESS_RANGE[0] <= value <= BRIGHTNESS_RANGE[1]
            ):
                staged[key] = value
            else:
                return "UnknownCommand"
        self.attributes.update(staged)
        self._log("command", protocol.encode_sorted(staged))
        return None

    # -- the open local listener --------------------------------------------------

    def _on_local_frame(self, stream: StreamEnd, frame: DeviceFrame) -> None:
        if self.phase not in (
            DevicePhase.WIFI_JOINED,
            DevicePhase.BIND_PENDING,
            DevicePhase.REGISTERED,
        ):
            return
        if frame.kind != "command":
            return
        # no authentication whatsoever: whoever reaches this port is obeyed
        reason = self.apply_command(frame.payload.get("command", {}))
        ack = frame.reply(reason is None, reason, status=dict(self.attributes))
        stream.send(encode_frame(ack))

    # -- event log ----------------------------------------------------------------

    def _set_phase(self, phase: DevicePhase, detail: str) -> None:
        self.phase = phase
        self._log(phase.value, detail)

    def _log(self, event: str, detail: str) -> None:
        self.events.append(
            {
                "t": self.clock.now,
                "device_id": self.device_id,
                "phase": self.phase.value,
                "event": event,
                "detail": detail,
            }
        )
