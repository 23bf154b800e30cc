import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provlab import dpl, protocol
from provlab.cloud import (
    API_PATH,
    APP_ACTIONS,
    CloudRegistry,
    DeviceOffline,
    DeviceRecord,
    UnknownDevice,
    VendorCloud,
)
from provlab.device import DevicePhase, IoTDevice
from provlab.netsim import LossModel, SimClock, Simulation
from provlab.protocol import DeviceFrame, FrameReader, MalformedFrame, encode_frame, issue_token
from provlab.provisioner import AppConfig, CloudRejected, MobileApp
from provlab.scenarios import HOME_SSID, _app, _device, _provision, build_world
from provlab.signing import derive_signing_key, seal_postdata, sign_envelope

HOME = "home-net"
PSK = "hunter2-long"


@pytest.fixture
def world(keyset):
    rng = random.Random(11)
    sim = Simulation(loss=LossModel(), clock=SimClock(1_613_000_000))
    cloud = VendorCloud(sim, rng=rng, nonce_source=rng)
    cloud.register_vendor("com.xyz.smart", keyset)
    sim.create_network(HOME, PSK)
    directory = {"52.29.0.171": cloud}
    config = AppConfig(
        bundle_id="com.xyz.smart", client_id="client-01", region="EU",
        user_id="user-01", keys=keyset,
    )
    app = MobileApp(sim, config, directory, rng=rng, dns_available=False,
                    dns_answers={"EU": ["52.29.0.171"]}, nonce_source=rng)
    sim.join(app.endpoint, HOME, PSK)
    return sim, cloud, app, rng


def provision_one(sim, cloud, app, device_id="bulb-01"):
    device = IoTDevice(sim, device_id, cloud.endpoint)
    sim.join(device.endpoint, HOME, PSK)
    token = app.acquire_token()
    creds = dpl.Credentials(HOME, PSK, token.value)
    outcome = app.provision(creds, idle_hook=device.idle)
    assert outcome.success
    return device, token


class TestRegistrationFlow:
    def test_happy_path_reaches_registered(self, world):
        sim, cloud, app, _ = world
        device, token = provision_one(sim, cloud, app)
        assert device.phase is DevicePhase.REGISTERED
        rec = cloud.registry.tokens.get(token.value)
        assert rec.bound_device == "bulb-01"

    def test_state_machine_path(self, world):
        # the only road to Registered runs through the full chain
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        phases = [e["event"] for e in device.events if e["event"] in
                  {p.value for p in DevicePhase}]
        assert phases == [
            "CredsReceived", "WifiJoined", "BindPending", "Registered",
        ]

    def test_registered_device_does_not_decode_later_broadcasts(self, world, monkeypatch):
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        fed = []
        feed = dpl.DecoderBank.feed
        monkeypatch.setattr(dpl.DecoderBank, "feed",
                            lambda bank, src, lengths: fed.append(bank) or feed(bank, src, lengths))
        newcomer, _ = provision_one(sim, cloud, app, device_id="plug-02")
        assert newcomer.phase is DevicePhase.REGISTERED
        assert any(bank is newcomer.bank for bank in fed)
        assert not any(bank is device.bank for bank in fed)
        assert device.phase is DevicePhase.REGISTERED

    def test_interleaved_senders_give_the_device_one_senders_credentials(self):
        for trial in range(20):
            rng = random.Random(trial)
            sim = Simulation(loss=LossModel(), clock=SimClock(1_613_000_000))
            sim.create_network(HOME, PSK)
            device = IoTDevice(sim, "bulb-01", sim.register("cloud", wan=True))
            sim.join(device.endpoint, HOME, PSK)
            phones, sent, lengths = [], [], []
            for k in range(2):
                phones.append(sim.register(f"phone-{k}"))
                sim.join(phones[k], HOME, PSK)
                sent.append(dpl.Credentials(HOME, PSK, protocol.generate_token_value(rng)))
                lengths.append(dpl.encode(sent[k], 5))
            # a uniform order-keeping interleaving: shuffle the sender of each slot
            picks = [k for k in range(2) for _ in lengths[k]]
            rng.shuffle(picks)
            streams = [iter(seq) for seq in lengths]
            for k in picks:
                sim.broadcast_lengths(phones[k], dpl.PROVISION_PORT, [next(streams[k])])
            device.idle()
            assert device.creds in sent, trial

    def test_failed_attempt_does_not_block_a_genuine_provisioning(self, world):
        sim, cloud, app, _ = world
        device = IoTDevice(sim, "bulb-01", cloud.endpoint)
        sim.join(device.endpoint, HOME, PSK)
        rig = sim.register("rig")
        sim.join(rig, HOME, PSK)
        lengths = dpl.encode(dpl.Credentials(HOME, PSK, "x" * 32), 1)
        lengths[-1] = dpl.CRC_BASE + (lengths[-1] - dpl.CRC_BASE + 1) % 256
        sim.broadcast_lengths(rig, dpl.PROVISION_PORT, lengths)
        device.idle()
        assert device.phase is DevicePhase.UNPROVISIONED
        token = app.acquire_token()
        outcome = app.provision(dpl.Credentials(HOME, PSK, token.value), idle_hook=device.idle)
        assert outcome.success
        assert device.phase is DevicePhase.REGISTERED

    def test_app_opens_no_port_for_other_senders_broadcasts(self, world):
        # an app never reads port 30011: another phone's broadcasts reach a
        # listening device on the same network and run nothing at the app
        sim, cloud, app, _ = world
        device = IoTDevice(sim, "bulb-01", cloud.endpoint)
        sim.join(device.endpoint, HOME, PSK)
        phone = sim.register("app-user-02")
        sim.join(phone, HOME, PSK)
        creds = dpl.Credentials(HOME, PSK, "t" * 32)
        sent = sim.broadcast_lengths(phone, dpl.PROVISION_PORT, dpl.encode(creds, 1))
        device.idle()
        assert sent > 0
        assert device.creds == creds
        assert sim._rec(app.endpoint).datagram_handlers == {}

    def test_device_verdict_blind_to_freshness(self, world):
        # same 32-char shape, fresh vs stale: identical device behavior,
        # divergent cloud verdicts
        sim, cloud, app, rng = world
        stale = app.acquire_token()
        sim.clock.advance(protocol.TTL_SECONDS + 60)
        fresh = app.acquire_token()
        results = {}
        for label, value in (("stale", stale.value), ("fresh", fresh.value)):
            device = IoTDevice(sim, f"dev-{label}", cloud.endpoint)
            sim.join(device.endpoint, HOME, PSK)
            app.broadcast_credentials(dpl.Credentials(HOME, PSK, value), rounds=1)
            device.idle()
            results[label] = device
        # both devices accepted the token and attempted the bind
        for device in results.values():
            attempted = [e["event"] for e in device.events]
            assert "BindPending" in attempted
        assert results["fresh"].phase is DevicePhase.REGISTERED
        assert results["stale"].phase is DevicePhase.REGISTER_FAILED

    def test_command_round_trip_updates_status(self, world):
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        status = app.control_device("bulb-01", {"brightness": 42})
        assert status["brightness"] == 42
        assert device.attributes["brightness"] == 42
        assert cloud.registry.devices["bulb-01"].status["brightness"] == 42

    @pytest.mark.parametrize("brightness", [150, True, False])
    def test_command_range_violation(self, world, brightness):
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        with pytest.raises(CloudRejected) as err:
            app.control_device("bulb-01", {"brightness": brightness})
        assert "UnknownCommand" in str(err.value)
        assert device.attributes["brightness"] == 0
        assert type(device.attributes["brightness"]) is int

    def test_command_before_registered_is_refused(self, world):
        sim, cloud, app, _ = world
        device = IoTDevice(sim, "bulb-02", cloud.endpoint)
        ack = device.handle_command(
            DeviceFrame(kind="command", device_id="bulb-02",
                        payload={"command": {"power": "on"}})
        )
        assert not ack.payload["success"]
        assert ack.payload["reason"] == "NotRegistered"

    def test_relay_matches_request_ids(self, world):
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        before = [row for row in sim.capture.rows()
                  if row[5] == "stream" and row[2] == cloud.endpoint]
        app.control_device("bulb-01", {"power": "on"})
        after = [row for row in sim.capture.rows()
                 if row[5] == "stream" and row[2] == cloud.endpoint]
        # exactly one command frame left the cloud for this control call
        assert len(after) == len(before) + 1
        acks = [row for row in sim.capture.rows()
                if row[5] == "stream" and row[2] == "bulb-01"]
        assert acks  # and the device answered on the same channel

    def test_device_channel_ignores_frames_off_the_bind_stream(self, world):
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        before = dict(cloud.registry.devices["bulb-01"].status)
        intruder = sim.register("intruder")
        sim.join(intruder, HOME, PSK)
        stream = sim.open_stream(intruder, cloud.endpoint, protocol.DEVICE_PORT)
        stream.send(encode_frame(DeviceFrame(
            kind="status", device_id="bulb-01", payload={"status": {"power": "pwned"}},
        )))
        stream.send(encode_frame(DeviceFrame(
            kind="ack", device_id="bulb-01", request_id="relay-000001",
            payload={"success": True, "status": {"power": "pwned"}},
        )))
        assert cloud.registry.devices["bulb-01"].status == before
        assert cloud.channels._pending == {}
        # the first relayed command gets the device's own ack, not the forged one
        assert cloud.relay_command("bulb-01", {"power": "on"})["status"]["power"] == "on"
        assert cloud.registry.devices["bulb-01"].status["power"] == "on"

    def test_status_goes_offline_with_the_device(self, world):
        sim, cloud, app, _ = world
        device, token = provision_one(sim, cloud, app)

        def status():
            return app.cloud_client.call(protocol.ACTION_DEVICE_STATUS, {"token": token.value})

        assert status()["online"] is True
        sim.set_online(device.endpoint, False)
        assert status()["online"] is False
        assert status()["device_id"] == "bulb-01"
        sim.set_online(device.endpoint, True)
        assert status()["online"] is True

    @pytest.mark.parametrize("status", [5, "on", ["power"]])
    def test_status_that_is_not_an_object_is_dropped(self, world, status):
        sim, cloud, app, _ = world
        token = app.acquire_token()
        rogue = sim.register("rogue")
        stream = sim.open_stream(rogue, cloud.endpoint, protocol.DEVICE_PORT)
        stream.send(encode_frame(DeviceFrame(kind="bind", device_id="rogue-01",
                                             token=token.value)))
        stream.send(encode_frame(DeviceFrame(kind="status", device_id="rogue-01",
                                             payload={"status": status})))
        assert cloud.registry.devices["rogue-01"].status == {}

    def test_frame_with_an_int_past_the_digit_limit_is_dropped(self, world):
        sim, cloud, app, _ = world
        token = app.acquire_token()
        rogue = sim.register("rogue")
        stream = sim.open_stream(rogue, cloud.endpoint, protocol.DEVICE_PORT)
        body = b'{"kind": "bind", "device_id": "rogue-01", "n": ' + b"9" * 5000 + b"}"
        stream.send(len(body).to_bytes(4, "big") + body)
        assert "rogue-01" not in cloud.registry.devices
        stream.send(encode_frame(DeviceFrame(kind="bind", device_id="rogue-01",
                                             token=token.value)))
        assert "rogue-01" in cloud.registry.devices


class TestSignatureGate:
    def test_no_mutation_on_tamper(self, world):
        sim, cloud, app, rng = world
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET,
            {"region": "EU", "userId": "user-01"},
            sim.clock.now,
        )
        fingerprint = cloud.registry.fingerprint()
        tampered = dict(envelope)
        tampered["lon"] = -89.0
        response = cloud.handle_app_request(tampered)
        assert response["success"] is False
        assert response["result"]["error"] == "BadSignature"
        assert cloud.registry.fingerprint() == fingerprint

    def test_unknown_bundle(self, world, keyset):
        sim, cloud, app, _ = world
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET, {"region": "EU"}, sim.clock.now
        )
        envelope["bundleId"] = "com.nobody.app"
        envelope["sign"] = sign_envelope(envelope, derive_signing_key(keyset))
        response = cloud.handle_app_request(envelope)
        assert response["result"]["error"] == "UnknownBundle"

    def test_unknown_action(self, world, keyset):
        sim, cloud, app, _ = world
        envelope = app.envelopes.build("m.not.an.action", {}, sim.clock.now)
        response = cloud.handle_app_request(envelope)
        assert response["result"]["error"] == "UnknownAction"

    @pytest.mark.parametrize("action", sorted(APP_ACTIONS))
    @pytest.mark.parametrize("post_obj", [[1], "x", 5, None])
    def test_post_data_that_is_not_an_object(self, world, action, post_obj):
        sim, cloud, app, _ = world
        envelope = app.envelopes.build(action, post_obj, sim.clock.now)
        fingerprint = cloud.registry.fingerprint()
        response = json.loads(cloud.post(API_PATH, json.dumps(envelope)))
        assert response["success"] is False
        assert response["result"]["error"] == "BadPostData"
        assert cloud.registry.fingerprint() == fingerprint

    @pytest.mark.parametrize("action, post_obj", [
        (protocol.ACTION_DEVICE_STATUS, {"device_id": [1]}),
        (protocol.ACTION_DEVICE_CONTROL, {"device_id": [1]}),
        (protocol.ACTION_DEVICE_STATUS, {"token": [1]}),
        (protocol.ACTION_DEVICE_BIND, {"token": [1]}),
        (protocol.ACTION_DEVICE_STATUS, {"token": {}, "device_id": None}),
        (protocol.ACTION_TOKEN_GET, {"region": 5}),
        (protocol.ACTION_TOKEN_GET, {"userId": ["x"]}),
        (protocol.ACTION_DEVICE_CONTROL, {"device_id": "bulb-01", "command": "on"}),
        (protocol.ACTION_DEVICE_CONTROL, {"device_id": None, "command": {"power": "on"}}),
        (protocol.ACTION_DEVICE_BIND, {"device_id": "bulb-09", "ssid": 7}),
        (protocol.ACTION_DEVICE_BIND, {"device_id": "bulb-09", "passphrase": []}),
        (protocol.ACTION_DEVICE_BIND, {"device_id": "bulb-09", "userId": 5}),
    ])
    def test_post_data_field_of_the_wrong_type(self, world, action, post_obj):
        sim, cloud, app, _ = world
        envelope = app.envelopes.build(action, post_obj, sim.clock.now)
        fingerprint = cloud.registry.fingerprint()
        response = json.loads(cloud.post(API_PATH, json.dumps(envelope)))
        assert response["success"] is False
        assert response["result"]["error"] == "BadPostData"
        assert cloud.registry.fingerprint() == fingerprint

    @pytest.mark.parametrize("body, error", [
        ("[1]", "BadRequest"), ('"x"', "BadRequest"), ("5", "BadRequest"),
        ("null", "BadRequest"), ('{"bundleId": [1]}', "UnknownBundle"),
        pytest.param("[" * 100_000, "BadRequest", id="nested-100k"),
        # json.loads raises a plain ValueError past CPython's int digit limit
        pytest.param('{"bundleId": "com.xyz.smart", "time": ' + "9" * 5000 + "}",
                     "BadRequest", id="int-5000-digits"),
    ])
    def test_envelope_of_the_wrong_shape(self, world, body, error):
        _, cloud, _, _ = world
        response = json.loads(cloud.post(API_PATH, body))
        assert response["success"] is False
        assert response["result"]["error"] == error

    def test_post_data_nested_too_deeply(self, world, keyset):
        sim, cloud, app, _ = world
        key = derive_signing_key(keyset)
        envelope = app.envelopes.build(protocol.ACTION_DEVICE_STATUS, {}, sim.clock.now)
        envelope["postData"] = seal_postdata(b"[" * 100_000, key)
        envelope["sign"] = sign_envelope(envelope, key)
        response = json.loads(cloud.post(API_PATH, json.dumps(envelope)))
        assert response["result"]["error"] == "BadPostData"

    def test_post_data_with_an_int_past_the_digit_limit(self, world, keyset):
        sim, cloud, app, _ = world
        key = derive_signing_key(keyset)
        envelope = app.envelopes.build(protocol.ACTION_DEVICE_STATUS, {}, sim.clock.now)
        envelope["postData"] = seal_postdata(b'{"device_id": ' + b"9" * 5000 + b"}", key)
        envelope["sign"] = sign_envelope(envelope, key)
        fingerprint = cloud.registry.fingerprint()
        response = json.loads(cloud.post(API_PATH, json.dumps(envelope)))
        assert response["result"]["error"] == "BadPostData"
        assert cloud.registry.fingerprint() == fingerprint

    def test_non_ascii_sign_is_a_bad_signature(self, world):
        sim, cloud, app, _ = world
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET, {"region": "EU"}, sim.clock.now
        )
        envelope["sign"] = "é" * 64
        fingerprint = cloud.registry.fingerprint()
        failures = cloud.verify_failures
        response = json.loads(cloud.post(API_PATH, json.dumps(envelope)))
        assert response["success"] is False
        assert response["result"]["error"] == "BadSignature"
        assert cloud.verify_failures == failures + 1
        assert cloud.registry.fingerprint() == fingerprint

    # json.loads takes a lone surrogate escape, which UTF-8 cannot encode
    @pytest.mark.parametrize("field", ["sign", "lat"])
    def test_a_lone_surrogate_is_a_bad_signature(self, world, field):
        sim, cloud, app, _ = world
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET, {"region": "EU"}, sim.clock.now
        )
        envelope[field] = "\ud800"
        fingerprint = cloud.registry.fingerprint()
        response = json.loads(cloud.post(API_PATH, json.dumps(envelope)))
        assert response["result"]["error"] == "BadSignature"
        assert cloud.registry.fingerprint() == fingerprint

    def test_signed_action_that_is_not_a_string(self, world, keyset):
        sim, cloud, app, _ = world
        envelope = app.envelopes.build(protocol.ACTION_TOKEN_GET, {}, sim.clock.now)
        envelope["a"] = [protocol.ACTION_TOKEN_GET]
        envelope["sign"] = sign_envelope(envelope, derive_signing_key(keyset))
        response = json.loads(cloud.post(API_PATH, json.dumps(envelope)))
        assert response["result"]["error"] == "UnknownAction"

    def test_missing_sign_rejected(self, world):
        sim, cloud, app, _ = world
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET, {"region": "EU"}, sim.clock.now
        )
        del envelope["sign"]
        response = cloud.handle_app_request(envelope)
        assert response["result"]["error"] == "BadSignature"

    def test_an_envelope_nested_near_the_parser_limit_is_answered(self, world):
        # the signing string nests one level deeper than json.loads, so a
        # field that just parses must still get an answer, not a traceback
        _, cloud, _, _ = world
        errors, raised = set(), []
        for depth in range(700, 1001):
            body = ('{"bundleId": "com.xyz.smart", "a": ' + "[" * depth + "]" * depth
                    + ', "sign": "00"}')
            try:
                errors.add(json.loads(cloud.post(API_PATH, body))["result"]["error"])
            except RecursionError:
                raised.append(depth)
        assert raised == []
        assert errors == {"BadSignature", "BadRequest"}


# Written apart from APP_ACTIONS: the JSON types each postData field accepts.
_TEXT_OR_NULL = (str, type(None))
ACCEPTED = {
    protocol.ACTION_TOKEN_GET: {"region": str, "userId": str},
    protocol.ACTION_DEVICE_STATUS: {"device_id": _TEXT_OR_NULL, "token": _TEXT_OR_NULL},
    protocol.ACTION_DEVICE_CONTROL: {"device_id": str, "command": dict},
    protocol.ACTION_DEVICE_BIND: {
        "device_id": str, "token": _TEXT_OR_NULL, "ssid": str, "passphrase": str,
        "userId": _TEXT_OR_NULL,
    },
}
# well-typed postData; the property puts a drawn value into one of its fields
WELL_TYPED = {
    protocol.ACTION_TOKEN_GET: {"region": "EU", "userId": "user-01"},
    protocol.ACTION_DEVICE_STATUS: {"device_id": "bulb-01"},
    protocol.ACTION_DEVICE_CONTROL: {"device_id": "bulb-01", "command": {"power": "on"}},
    protocol.ACTION_DEVICE_BIND: {
        "device_id": "bulb-77", "token": "no-such-token", "ssid": "s", "passphrase": "p",
        "userId": "user-01",
    },
}
DECLARED_ERRORS = {"BadPostData", "DeviceOffline", "UnknownCommand"} | {
    reason.value for reason in protocol.RejectReason
}
# one value of each JSON type often, then anything
JSON_VALUES = st.sampled_from([None, True, 5, 1.5, "x", [], {}]) | st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def provisioned_world():
    world = build_world(0)
    app = _app(world)
    _token, outcome = _provision(world, app, _device(world, "bulb-01"))
    assert outcome.success
    return world, app


class TestPostDataTable:
    def test_table_actions_are_the_registered_ones(self):
        assert set(APP_ACTIONS) == {
            protocol.ACTION_TOKEN_GET, protocol.ACTION_DEVICE_BIND,
            protocol.ACTION_DEVICE_CONTROL, protocol.ACTION_DEVICE_STATUS,
        }

    def test_table_fields_are_the_accepted_ones(self):
        assert {action: set(spec) for action, (_handler, spec) in APP_ACTIONS.items()} == {
            action: set(fields) for action, fields in ACCEPTED.items()
        }

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_json_value_in_any_field(self, provisioned_world, data):
        world, app = provisioned_world
        action = data.draw(st.sampled_from(sorted(ACCEPTED)))
        name = data.draw(st.sampled_from(sorted(ACCEPTED[action])))
        value = data.draw(JSON_VALUES)
        envelope = app.envelopes.build(action, {**WELL_TYPED[action], name: value},
                                       world.clock.now)
        fingerprint = world.cloud.registry.fingerprint()
        response = json.loads(world.cloud.post(API_PATH, json.dumps(envelope)))
        if isinstance(value, ACCEPTED[action][name]):
            assert response["success"] or response["result"]["error"] in DECLARED_ERRORS
        else:
            assert response["success"] is False
            assert response["result"]["error"] == "BadPostData"
            assert world.cloud.registry.fingerprint() == fingerprint


class TestBind:
    def test_handle_bind_requires_bind_kind(self, world):
        _, cloud, _, _ = world
        with pytest.raises(MalformedFrame):
            cloud.handle_bind(DeviceFrame(kind="status", device_id="d"))

    def test_vendor_mismatch_at_bind(self, world):
        sim, cloud, app, _ = world
        token = app.acquire_token()
        ack = cloud.handle_bind(
            DeviceFrame(
                kind="bind", device_id="dev-x", token=token.value,
                payload={"ssid": HOME, "passphrase": PSK,
                         "bundle_id": "com.other.vendor"},
            )
        )
        assert not ack.payload["success"]
        assert ack.payload["reason"] == "VendorMismatch"

    def test_a_token_binds_once(self, world):
        sim, cloud, app, _ = world
        token = app.acquire_token()
        acks = [
            cloud.handle_bind(DeviceFrame(
                kind="bind", device_id=f"racer-{i}", token=token.value,
                payload={"ssid": HOME, "passphrase": PSK, "bundle_id": "com.xyz.smart"},
            )).payload
            for i in range(8)
        ]
        assert acks == [{"success": True}] + [{"success": False, "reason": "AlreadyBound"}] * 7
        assert list(cloud.registry.devices) == ["racer-0"]

    def _rebind(self, sim, cloud, token, endpoint_id):
        wan = sim.register(endpoint_id, wan=True)
        stream = sim.open_stream(wan, cloud.endpoint, protocol.DEVICE_PORT)
        stream.send(encode_frame(DeviceFrame(
            kind="bind", device_id="bulb-01", token=token.value,
            payload={"ssid": "evil", "passphrase": "", "bundle_id": "com.xyz.smart"},
        )))
        (ack,) = FrameReader().push(stream.recv())
        return stream, ack.payload

    def test_another_user_cannot_rebind_a_bound_device(self, world):
        # remote binding: a second user of the vendor names the victim's
        # device in a bind of their own, from anywhere on the WAN
        sim, cloud, app, rng = world
        provision_one(sim, cloud, app, "bulb-01")
        record = cloud.registry.devices["bulb-01"]
        mallory = MobileApp(sim, replace(app.config, user_id="mallory"),
                            {"52.29.0.171": cloud}, rng, dns_available=False,
                            dns_answers={"EU": ["52.29.0.171"]}, nonce_source=rng)
        token = mallory.acquire_token()
        stream, ack = self._rebind(sim, cloud, token, "mallory-wan")
        assert ack == {"success": False, "reason": "AlreadyBound"}
        assert cloud.registry.devices["bulb-01"] is record
        assert cloud.registry.tokens.get(token.value).bound_device is None
        assert app.control_device("bulb-01", {"power": "on"})["power"] == "on"
        assert stream.recv() == b""  # the command went to the victim's device

    def test_the_owner_may_rebind(self, world):
        sim, cloud, app, _ = world
        provision_one(sim, cloud, app, "bulb-01")
        token = app.acquire_token()
        _stream, ack = self._rebind(sim, cloud, token, "owner-wan")
        assert ack == {"success": True}
        assert cloud.registry.devices["bulb-01"].token_value == token.value

    def test_token_conservation(self, world):
        sim, cloud, app, _ = world
        provision_one(sim, cloud, app, "bulb-01")
        provision_one(sim, cloud, app, "bulb-02")
        assert cloud.registry.tokens.bound_count() == len(cloud.registry.devices) == 2


class TestRegistrySnapshot:
    # to_json and fingerprint are what the golden registry digest and the
    # attack-chain's no-mutation check read

    def test_empty_registry(self):
        registry = CloudRegistry()
        assert json.loads(registry.to_json()) == {"tokens": {}, "devices": {}, "vendors": {}}
        assert registry.fingerprint() == hashlib.sha256(
            registry.to_json().encode("utf-8")).hexdigest()

    def test_snapshot_holds_what_the_cloud_recorded(self, world, keyset):
        sim, cloud, app, _ = world
        _, first = provision_one(sim, cloud, app, "bulb-01")
        _, second = provision_one(sim, cloud, app, "bulb-02")
        app.control_device("bulb-01", {"power": "on"})
        snap = json.loads(cloud.registry.to_json())
        assert set(snap["devices"]) == {"bulb-01", "bulb-02"}
        assert snap["devices"]["bulb-01"]["status"]["power"] == "on"
        assert snap["devices"]["bulb-02"]["token_value"] == second.value
        assert {value: rec["bound_device"] for value, rec in snap["tokens"].items()} == {
            first.value: "bulb-01", second.value: "bulb-02"}
        assert snap["vendors"] == {"com.xyz.smart": {
            "cert_hash": keyset.cert_hash, "secret1": keyset.secret1,
            "secret2": keyset.secret2}}

    def test_insertion_order_does_not_matter(self, keyset):
        rng = random.Random(3)
        tokens = [issue_token(rng, 1_613_000_000, "EU", "com.xyz.smart", "user-01")
                  for _ in range(3)]
        devices = [DeviceRecord(f"bulb-{i}", "user-01", "com.xyz.smart", HOME, PSK,
                                tokens[i].value, {"power": "off"}) for i in range(3)]
        vendors = [("com.xyz.smart", keyset), ("com.abc.home", replace(keyset, secret1="x"))]
        registries = []
        for order in ((0, 1, 2), (2, 0, 1)):
            registry = CloudRegistry()
            for i in order:
                registry.tokens.add(tokens[i])
                registry.devices[devices[i].device_id] = devices[i]
            for bundle_id, keys in (vendors if order[0] == 0 else vendors[::-1]):
                registry.vendors[bundle_id] = keys
            registries.append(registry)
        assert registries[0].to_json() == registries[1].to_json()
        assert registries[0].fingerprint() == registries[1].fingerprint()

    @pytest.mark.parametrize("change", [
        "device-status", "new-device", "new-vendor", "new-token", "bind-reject",
    ])
    def test_fingerprint_moves_with_each_change(self, world, keyset, change):
        sim, cloud, app, _ = world
        _, token = provision_one(sim, cloud, app, "bulb-01")
        before = cloud.registry.fingerprint()
        if change == "device-status":
            app.control_device("bulb-01", {"power": "on"})
        elif change == "new-device":
            provision_one(sim, cloud, app, "bulb-02")
        elif change == "new-vendor":
            cloud.register_vendor("com.abc.home", replace(keyset, secret1="x"))
        elif change == "new-token":
            app.acquire_token()
        else:
            verdict = cloud.registry.tokens.bind(token.value, "bulb-09", sim.clock.now)
            assert not verdict.accepted
        assert cloud.registry.fingerprint() != before


class TestFootprint:
    def test_footprint_reports_what_device_said_at_bind(self, world):
        sim, cloud, app, _ = world
        provision_one(sim, cloud, app)
        foot = cloud.stored_footprint("bulb-01")
        assert foot["ssid"] == HOME  # the baseline leak isolation removes
        assert foot["passphrase"] == PSK
        assert foot["bundle_id"] == "com.xyz.smart"
        assert foot["user_id"] == "user-01"

    def test_unknown_device(self, world):
        _, cloud, _, _ = world
        with pytest.raises(UnknownDevice):
            cloud.stored_footprint("ghost")


class TestLocalListener:
    def test_same_network_attacker_commands_device(self, world):
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        attacker = sim.register("attacker")
        sim.join(attacker, HOME, PSK)
        stream = sim.open_stream(attacker, device.endpoint, protocol.DEVICE_PORT)
        stream.send(encode_frame(DeviceFrame(
            kind="command", device_id="bulb-01",
            payload={"command": {"power": "on"}}, request_id="evil-1",
        )))
        acks = FrameReader().push(stream.recv())
        assert acks[0].payload["success"]
        assert device.attributes["power"] == "on"

    def test_alt_port_1883_same_framing(self, world):
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        attacker = sim.register("attacker")
        sim.join(attacker, HOME, PSK)
        stream = sim.open_stream(attacker, device.endpoint, protocol.DEVICE_PORT_ALT)
        stream.send(encode_frame(DeviceFrame(
            kind="command", device_id="bulb-01",
            payload={"command": {"power": "on"}},
        )))
        assert device.attributes["power"] == "on"

    @pytest.mark.parametrize("body", [b"x" * 100, b"[" * 100_000], ids=["not-json", "nested-100k"])
    def test_malformed_frames_ignored(self, world, body):
        sim, cloud, app, _ = world
        device, _ = provision_one(sim, cloud, app)
        attacker = sim.register("attacker")
        sim.join(attacker, HOME, PSK)
        stream = sim.open_stream(attacker, device.endpoint, protocol.DEVICE_PORT)
        stream.send(len(body).to_bytes(4, "big") + body)
        assert device.attributes == {"power": "off", "brightness": 0}


class TestVendorScope:
    """An app sees and controls only its own vendor's devices; another
    vendor's device or token answers exactly as an unknown one."""

    @pytest.fixture
    def two_vendors(self):
        world = build_world(0, bundles=("com.xyz.smart", "com.abc.home"))
        owner = _app(world)
        token, outcome = _provision(world, owner, _device(world, "bulb-01"))
        assert outcome.success
        stale = owner.acquire_token()
        world.clock.advance(protocol.TTL_SECONDS + 60)
        device = _device(world, "bulb-02")
        owner.broadcast_credentials(dpl.Credentials(HOME_SSID, world.home_passphrase,
                                                    stale.value), rounds=1)
        device.idle()
        assert world.cloud.registry.tokens.get(stale.value).last_reject == "Expired"
        return world, owner, _app(world, bundle="com.abc.home", user="user-99"), token, stale

    def test_control_of_another_vendors_device(self, two_vendors):
        world, _owner, other, _token, _stale = two_vendors
        for device_id in ("bulb-01", "ghost"):
            with pytest.raises(DeviceOffline, match=device_id):
                other.control_device(device_id, {"power": "on"})
        assert world.cloud.registry.devices["bulb-01"].status == {}

    @pytest.mark.parametrize("post_obj, unknown", [
        ({"device_id": "bulb-01"}, {"device_id": "ghost"}),
        ({"token": "bound"}, {"token": "no-such-token"}),
        ({"token": "stale"}, {"token": "no-such-token"}),
    ])
    def test_status_of_another_vendors_device(self, two_vendors, post_obj, unknown):
        _world, owner, other, token, stale = two_vendors
        values = {"bound": token.value, "stale": stale.value}
        post_obj = {k: values.get(v, v) for k, v in post_obj.items()}

        def status(app, obj):
            return app.cloud_client.call(protocol.ACTION_DEVICE_STATUS, obj)

        seen_by_owner = status(owner, post_obj)
        assert seen_by_owner.get("status") is not None or seen_by_owner["reject_reason"]
        expected = status(other, unknown)
        if "device_id" in post_obj:
            expected["device_id"] = post_obj["device_id"]
        assert status(other, post_obj) == expected
