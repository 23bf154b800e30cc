"""Vendor-cloud emulator.

One signed-envelope endpoint for app requests (token issuance, device
status, control relay), one stream endpoint for device binds and
command delivery, and a registry.  An app request changes the registry
only after its signature verifies *and* its postData matches its
action's row of :data:`APP_ACTIONS`.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, field, asdict

from . import protocol
from .netsim import PeerUnreachable, Simulation, StreamEnd
from .protocol import (
    DeviceFrame,
    MalformedFrame,
    TokenStore,
    encode_frame,
    encode_sorted,
    issue_token,
)
from .signing import (
    SigningKeySet,
    derive_signing_key,
    open_postdata,
    seal_postdata,
    sign_envelope,
    verify_envelope,
)

API_PATH = "/api.json"


class CloudError(Exception):
    pass


class CloudUnreachable(CloudError):
    pass


class DeviceOffline(CloudError):
    pass


class UnknownDevice(CloudError):
    pass


@dataclass
class DeviceRecord:
    device_id: str
    user_id: str
    bundle_id: str
    ssid: str
    passphrase: str
    token_value: str
    status: dict = field(default_factory=dict)


@dataclass
class CloudRegistry:
    tokens: TokenStore = field(default_factory=TokenStore)
    devices: dict[str, DeviceRecord] = field(default_factory=dict)
    vendors: dict[str, SigningKeySet] = field(default_factory=dict)

    def to_json(self) -> str:
        snap = {
            "tokens": {
                value: {
                    "token": asdict(rec.token),
                    "bound_device": rec.bound_device,
                    "last_reject": rec.last_reject,
                }
                for value, rec in self.tokens.records.items()
            },
            "devices": {did: asdict(rec) for did, rec in self.devices.items()},
            "vendors": {bid: asdict(ks) for bid, ks in self.vendors.items()},
        }
        return json.dumps(snap, sort_keys=True, indent=2)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


class DeviceChannels:
    """The serving side of the device channel, shared by the vendor cloud
    and the proxy gateway.

    Listens on both device ports, keeps the stream each device bound on
    and runs the command -> ack exchange.  An ack counts only if it
    answers a pending command and arrives on the stream that command
    went out on.  The owner's ``on_frame(stream, frame)`` gets bind frames
    from any stream and every other frame only from the stream its device
    bound on; the rest is dropped.
    """

    def __init__(self, sim: Simulation, endpoint: str, prefix: str, on_frame):
        self._prefix = prefix  # request ids are f"{prefix}-NNNNNN"
        # weak: the owner holds these channels, and a strong ref would be a cycle
        self._on_frame = weakref.WeakMethod(on_frame)
        self._streams: dict[str, StreamEnd] = {}
        self._pending: dict[str, tuple[StreamEnd, DeviceFrame | None]] = {}
        self._seq = 0
        protocol.listen_frames(sim, endpoint, self._dispatch)

    def bind(self, device_id: str, stream: StreamEnd) -> None:
        self._streams[device_id] = stream

    def stream_of(self, device_id: str) -> StreamEnd | None:
        return self._streams.get(device_id)

    def command(self, device_id: str, command: dict) -> dict:
        """Send one command frame on the device's bind stream and return
        the ack payload; :class:`DeviceOffline` if no ack comes back."""
        stream = self._streams.get(device_id)
        self._seq += 1
        request_id = f"{self._prefix}-{self._seq:06d}"
        if stream is None:
            raise DeviceOffline(f"no live channel to {device_id}")
        self._pending[request_id] = (stream, None)
        frame = DeviceFrame(
            kind="command",
            device_id=device_id,
            payload={"command": command},
            request_id=request_id,
        )
        try:
            stream.send(encode_frame(frame))
        except PeerUnreachable as exc:
            raise DeviceOffline(f"channel to {device_id} is dead: {exc}") from exc
        finally:
            _stream, ack = self._pending.pop(request_id)
        if ack is None:
            raise DeviceOffline(f"{device_id} did not acknowledge")
        return ack.payload

    def _dispatch(self, stream: StreamEnd, frame: DeviceFrame) -> None:
        if frame.kind == "ack":
            waiting = self._pending.get(frame.request_id)
            if waiting is not None and waiting[0] is stream:
                self._pending[frame.request_id] = (stream, frame)
                return
        if frame.kind == "bind" or self._streams.get(frame.device_id) is stream:
            on_frame = self._on_frame()
            if on_frame is not None:
                on_frame(stream, frame)


class VendorCloud:
    """The cloud side of the provisioning protocol.

    App requests arrive as HTTP-style POSTs to ``/api.json`` (modeled as
    a direct call); device traffic arrives on netsim streams to port
    6668 (or its 1883 alias) as length-prefixed frames.
    """

    def __init__(self, sim: Simulation, rng, nonce_source=None):
        self.sim = sim
        self.clock = sim.clock
        self.rng = rng
        self.nonce_source = nonce_source
        self.endpoint = sim.register("cloud", wan=True)
        self.channels = DeviceChannels(sim, self.endpoint, "relay", self._on_device_frame)
        self.registry = CloudRegistry()
        self.requests_total = 0
        self.verify_failures = 0
        self.last_envelope: dict | None = None

    # -- setup -------------------------------------------------------------

    def register_vendor(self, bundle_id: str, keys: SigningKeySet) -> None:
        self.registry.vendors[bundle_id] = keys

    @property
    def online(self) -> bool:
        return self.sim.is_online(self.endpoint)

    def set_online(self, online: bool) -> None:
        self.sim.set_online(self.endpoint, online)

    # -- app endpoint --------------------------------------------------------

    def post(self, path: str, body: str) -> str:
        """The app-facing wire surface: JSON envelope in, JSON response out."""
        if not self.online:
            raise CloudUnreachable("cloud endpoint is down")
        if path != API_PATH:
            return json.dumps(self._failure(None, "NotFound"))
        try:
            envelope = json.loads(body)
        except (ValueError, RecursionError):  # ValueError covers JSONDecodeError
            return json.dumps(self._failure(None, "BadRequest"))
        if not isinstance(envelope, dict):
            return json.dumps(self._failure(None, "BadRequest"))
        return json.dumps(self.handle_app_request(envelope))

    def handle_app_request(self, envelope: dict) -> dict:
        self.requests_total += 1
        bundle = envelope.get("bundleId")
        keys = self.registry.vendors.get(bundle) if isinstance(bundle, str) else None
        if keys is None:
            self.verify_failures += 1
            return self._failure(None, "UnknownBundle")
        key = derive_signing_key(keys)
        if not verify_envelope(envelope, key):
            self.verify_failures += 1
            return self._failure(key, "BadSignature")
        action = envelope.get("a")
        row = APP_ACTIONS.get(action) if isinstance(action, str) else None
        if row is None:
            return self._failure(key, "UnknownAction")
        try:
            post_obj = json.loads(open_postdata(envelope.get("postData", ""), key))
        except (ValueError, RecursionError):  # SigningError, JSON and UTF-8 errors
            return self._failure(key, "BadPostData")
        if not isinstance(post_obj, dict):
            return self._failure(key, "BadPostData")
        handler, spec = row
        fields = {}
        for name, (types, absent) in spec.items():
            value = post_obj.get(name, absent)
            if not isinstance(value, types):
                return self._failure(key, "BadPostData")
            fields[name] = value
        self.last_envelope = dict(envelope)
        return handler(self, envelope, fields, key)

    def _respond(self, key: bytes, result_obj: dict) -> dict:
        sealed = seal_postdata(
            encode_sorted(result_obj).encode("utf-8"),
            key,
            nonce_source=self.nonce_source,
        )
        response = {"success": True, "t": self.clock.now, "result": sealed}
        response["sign"] = sign_envelope(response, key)
        return response

    def _failure(self, key: bytes | None, reason: str) -> dict:
        response = {
            "success": False,
            "t": self.clock.now,
            "result": {"error": reason},
        }
        response["sign"] = sign_envelope(response, key) if key else ""
        return response

    def _do_token_get(self, envelope: dict, fields: dict, key: bytes) -> dict:
        region = fields["region"]
        token = issue_token(
            self.rng, self.clock.now, region, envelope["bundleId"], fields["userId"]
        )
        self.registry.tokens.add(token)
        return self._respond(
            key,
            {
                "token": token.value,
                "region": region,
                "expires_in": protocol.TTL_SECONDS,
            },
        )

    def _vendor_view(self, envelope: dict, device_id, token=None) -> tuple:
        """``(device_id, reject_reason, DeviceRecord or None)`` for the device
        an app request names by id, or else by token.  Another vendor's
        token or device answers exactly as an unknown one."""
        bundle, reject_reason = envelope["bundleId"], None
        rec = self.registry.tokens.get(token) if device_id is None else None
        if rec is not None and rec.token.bundle_id == bundle:
            device_id = rec.bound_device
            if device_id is None:
                reject_reason = rec.last_reject
        dev = self.registry.devices.get(device_id) if device_id else None
        return device_id, reject_reason, dev if dev and dev.bundle_id == bundle else None

    def _do_status(self, envelope: dict, fields: dict, key: bytes) -> dict:
        """A device is online while the far end of its bind stream is."""
        device_id, reject_reason, dev = self._vendor_view(
            envelope, fields["device_id"], fields["token"])
        result = {"online": False, "device_id": device_id, "reject_reason": reject_reason}
        if dev is not None:
            stream = self.channels.stream_of(device_id)
            result["online"] = stream is not None and self.sim.is_online(stream.peer)
            result["status"] = dict(dev.status)
        return self._respond(key, result)

    def _do_control(self, envelope: dict, fields: dict, key: bytes) -> dict:
        device_id = fields["device_id"]
        if self._vendor_view(envelope, device_id)[2] is None:
            return self._failure(key, "DeviceOffline")
        try:
            ack_payload = self.relay_command(device_id, fields["command"])
        except DeviceOffline:
            return self._failure(key, "DeviceOffline")
        if not ack_payload.get("success", False):
            return self._failure(key, ack_payload.get("reason", "CommandRejected"))
        return self._respond(
            key, {"device_id": device_id, "status": ack_payload.get("status", {})}
        )

    def _do_envelope_bind(self, envelope: dict, fields: dict, key: bytes) -> dict:
        frame = DeviceFrame(
            kind="bind",
            device_id=fields["device_id"],
            token=fields["token"],
            payload={
                "ssid": fields["ssid"],
                "passphrase": fields["passphrase"],
                "bundle_id": envelope["bundleId"],
                "user_id": fields["userId"],
            },
        )
        ack = self.handle_bind(frame)
        if ack.payload.get("success"):
            return self._respond(key, {"device_id": frame.device_id, "bound": True})
        return self._failure(key, ack.payload.get("reason", "BindRejected"))

    # -- device channel ------------------------------------------------------

    def _on_device_frame(self, stream: StreamEnd, frame: DeviceFrame) -> None:
        if frame.kind == "bind":
            ack = self.handle_bind(frame)
            if ack.payload.get("success"):
                self.channels.bind(frame.device_id, stream)
            stream.send(encode_frame(ack))
        elif frame.kind == "status":
            self._set_status(frame.device_id, frame.payload.get("status", {}))
        # acks that answer no command, and commands, are dropped

    def _set_status(self, device_id: str, status) -> None:
        dev = self.registry.devices.get(device_id)
        if dev is not None and isinstance(status, dict):
            dev.status = dict(status)

    def handle_bind(self, frame: DeviceFrame) -> DeviceFrame:
        """Token check-and-bind, once per token; the ack carries the verdict."""
        if frame.kind != "bind":
            raise MalformedFrame(f"expected bind frame, got {frame.kind!r}")
        token_value = frame.token or ""
        # a bound device stays with its owner: another user's token cannot take it
        owner = self.registry.devices.get(frame.device_id)
        rec = self.registry.tokens.get(token_value)
        if owner is not None and rec is not None and (
            (rec.token.bundle_id, rec.token.user_id) != (owner.bundle_id, owner.user_id)
        ):
            return frame.reply(False, protocol.RejectReason.ALREADY_BOUND.value)
        verdict = self.registry.tokens.bind(
            token_value,
            frame.device_id,
            self.clock.now,
            bundle_id=frame.payload.get("bundle_id"),
            user_id=frame.payload.get("user_id"),
        )
        if not verdict.accepted:
            return frame.reply(False, verdict.reason.value)
        token = self.registry.tokens.get(token_value).token
        self.registry.devices[frame.device_id] = DeviceRecord(
            device_id=frame.device_id,
            user_id=token.user_id,
            bundle_id=token.bundle_id,
            ssid=frame.payload.get("ssid", ""),
            passphrase=frame.payload.get("passphrase", ""),
            token_value=token_value,
        )
        return frame.reply(True)

    def relay_command(self, device_id: str, command: dict) -> dict:
        """Push one command frame to the device and return its ack payload;
        the ack's status becomes the device's status in the registry."""
        ack_payload = self.channels.command(device_id, command)
        self._set_status(device_id, ack_payload.get("status"))
        return ack_payload

    # -- introspection -------------------------------------------------------

    def stored_footprint(self, device_id: str) -> dict:
        """Everything the cloud knows about a device's network."""
        dev = self.registry.devices.get(device_id)
        if dev is None:
            raise UnknownDevice(device_id)
        return {
            "device_id": dev.device_id,
            "ssid": dev.ssid,
            "passphrase": dev.passphrase,
            "user_id": dev.user_id,
            "bundle_id": dev.bundle_id,
            "status": dict(dev.status),
        }


# The app endpoint's one postData schema: action -> (handler, {field: (accepted
# JSON types, value when absent)}).  A present field of another type is
# BadPostData.  Handlers never mutate field values, so absent values are shared.
_TEXT = (str,), ""
_TEXT_OR_NULL = (str, type(None)), None
_OBJECT = (dict,), {}
APP_ACTIONS = {
    protocol.ACTION_TOKEN_GET: (VendorCloud._do_token_get, {
        "region": _TEXT, "userId": _TEXT}),
    protocol.ACTION_DEVICE_STATUS: (VendorCloud._do_status, {
        "device_id": _TEXT_OR_NULL, "token": _TEXT_OR_NULL}),
    protocol.ACTION_DEVICE_CONTROL: (VendorCloud._do_control, {
        "device_id": _TEXT, "command": _OBJECT}),
    protocol.ACTION_DEVICE_BIND: (VendorCloud._do_envelope_bind, {
        "device_id": _TEXT, "token": _TEXT_OR_NULL, "ssid": _TEXT,
        "passphrase": _TEXT, "userId": _TEXT_OR_NULL}),
}
