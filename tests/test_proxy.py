import random
from dataclasses import replace

import pytest

from provlab import dpl, protocol
from provlab.cloud import DeviceOffline, VendorCloud
from provlab.device import DevicePhase, IoTDevice
from provlab.netsim import LossModel, SimClock, Simulation
from provlab.protocol import DeviceFrame, encode_frame, serve_frames
from provlab.provisioner import RESEND_ROUNDS, AppConfig, MobileApp, keys_from_bmp
from provlab.proxy import (
    AlreadyAssigned,
    LocalCommandRefused,
    PolicyDenied,
    ProxyGateway,
    ProxyPolicy,
    UpstreamRejected,
)
from provlab.stego import MagicMismatch, StegoRecord, make_bmp, parse_bmp, stego_embed


@pytest.fixture
def rig(keyset):
    rng = random.Random(23)
    sim = Simulation(loss=LossModel(), clock=SimClock(1_613_000_000))
    cloud = VendorCloud(sim, rng=rng, nonce_source=rng)
    cloud.register_vendor("com.xyz.smart", keyset)
    sim.create_network("home-net", "hunter2-long")
    config = AppConfig(
        bundle_id="com.xyz.smart", client_id="gw-client", region="EU",
        user_id="user-01", keys=keyset,
    )
    proxy = ProxyGateway(
        sim, config, {"52.29.0.171": cloud},
        policy=ProxyPolicy(redact_fields={"lat", "lon"}),
        rng=rng, home_ssid="home-net", dns_available=False, nonce_source=rng,
    )
    return sim, cloud, proxy, rng


def provision_proxied(sim, proxy, device_id="bulb-01"):
    net = proxy.allocate_virtual_network(device_id)
    device = IoTDevice(sim, device_id, proxy.endpoint)
    sim.join(device.endpoint, net.ssid, net.passphrase)
    outcome = proxy.provision_isolated(device_id, idle_hook=device.idle)
    assert outcome.success, outcome
    return device, net


class TestIsolationManager:
    def test_allocation_shape(self, rig):
        sim, _, proxy, _ = rig
        net = proxy.allocate_virtual_network("bulb-01")
        assert net.ssid.startswith("vdev-")
        assert len(net.ssid) == 9
        assert len(net.passphrase) == 16
        assert net.ssid != "home-net"

    def test_double_allocation_rejected(self, rig):
        _, _, proxy, _ = rig
        proxy.allocate_virtual_network("bulb-01")
        with pytest.raises(AlreadyAssigned):
            proxy.allocate_virtual_network("bulb-01")

    def test_two_devices_two_disjoint_networks(self, rig):
        sim, _, proxy, _ = rig
        net_a = proxy.allocate_virtual_network("bulb-01")
        net_b = proxy.allocate_virtual_network("plug-02")
        assert net_a.ssid != net_b.ssid
        assert net_a.passphrase != net_b.passphrase
        # cross-broadcast delivery count is zero
        rx = sim.register("listener")
        sim.join(rx, net_b.ssid, net_b.passphrase)
        got = []

        def hear(src, lengths):
            got.extend(lengths)
            return len(lengths), None

        sim.set_datagram_handler(rx, 30011, hear)
        sim.broadcast_lengths(proxy.endpoint, 30011, (2,), ssid=net_a.ssid)
        assert got == []


class TestIsolatedProvisioning:
    def test_a_timeout_broadcasts_one_more_round_before_each_wait(self, rig):
        sim, _cloud, proxy, _ = rig
        net = proxy.allocate_virtual_network("bulb-01")
        token = proxy.cloud_client.request_token()["token"]
        outcome = proxy.provision_isolated("bulb-01", token=token)
        assert outcome.error == "Timeout"
        creds = dpl.Credentials(net.ssid, net.passphrase, token)
        sent = [row[4] for row in sim.capture.frames()
                if row[5] == "bcast" and row[1] == net.ssid]
        assert sent == dpl.encode(creds) + dpl.encode(creds, RESEND_ROUNDS) * 15

    def test_happy_path_footprint_is_fake_only(self, rig):
        sim, cloud, proxy, _ = rig
        device, net = provision_proxied(sim, proxy)
        assert device.phase is DevicePhase.REGISTERED
        foot = cloud.stored_footprint("bulb-01")
        assert foot["ssid"] == net.ssid
        assert foot["passphrase"] == net.passphrase
        snapshot = cloud.registry.to_json()
        assert "home-net" not in snapshot
        assert "hunter2-long" not in snapshot

    def test_stale_token_is_bind_rejected(self, rig):
        sim, cloud, proxy, _ = rig
        token = proxy.cloud_client.request_token()["token"]
        sim.clock.advance(protocol.TTL_SECONDS + 5)
        net = proxy.allocate_virtual_network("bulb-01")
        device = IoTDevice(sim, "bulb-01", proxy.endpoint)
        sim.join(device.endpoint, net.ssid, net.passphrase)
        outcome = proxy.provision_isolated(
            "bulb-01", token=token, idle_hook=device.idle
        )
        assert not outcome.success
        assert outcome.error == "BindRejected:Expired"
        assert device.phase is DevicePhase.REGISTER_FAILED


class TestRelay:
    def test_transparent_control_via_proxy(self, rig, keyset):
        sim, cloud, proxy, rng = rig
        device, _ = provision_proxied(sim, proxy)
        app_config = AppConfig(
            bundle_id="com.xyz.smart", client_id="app-client", region="EU",
            user_id="user-01", keys=keyset,
        )
        app = MobileApp(
            sim, app_config, {"52.29.0.171": cloud}, rng=rng,
            dns_available=False, endpoint_id="phone", nonce_source=rng,
        )
        envelope = app.envelopes.build(
            protocol.ACTION_DEVICE_CONTROL,
            {"device_id": "bulb-01", "command": {"power": "on"}},
            sim.clock.now,
        )
        response = proxy.relay_app_envelope(envelope)
        assert response["success"] is True
        assert device.attributes["power"] == "on"

    def test_redaction_happens_before_signing(self, rig, keyset):
        sim, cloud, proxy, rng = rig
        app_config = AppConfig(
            bundle_id="com.xyz.smart", client_id="app-client", region="EU",
            user_id="user-01", keys=keyset,
        )
        app = MobileApp(
            sim, app_config, {"52.29.0.171": cloud}, rng=rng,
            dns_available=False, endpoint_id="phone", nonce_source=rng,
        )
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET,
            {"region": "EU", "userId": "user-01"},
            sim.clock.now,
        )
        assert envelope["lat"] == 90.0
        response = proxy.relay_app_envelope(envelope)
        assert response["success"] is True  # signature verified upstream
        assert cloud.last_envelope["lat"] == 0.0
        assert cloud.last_envelope["lon"] == 0.0
        assert cloud.verify_failures == 0

    # an action that is not a string is denied, even one that holds a
    # registered action, as the cloud answers it with UnknownAction
    @pytest.mark.parametrize("action", [
        "m.factory.reset", [protocol.ACTION_DEVICE_STATUS], {"a": 1},
    ], ids=["not-allowed", "list", "object"])
    def test_policy_denied_sends_nothing_upstream(self, rig, keyset, action):
        sim, cloud, proxy, rng = rig
        before = cloud.requests_total
        with pytest.raises(PolicyDenied):
            proxy.relay_app_envelope({"a": action})
        assert cloud.requests_total == before

    # the gateway holds only xyz's key; absent or not a string, a bundle is foreign
    @pytest.mark.parametrize("bundle", ["com.abc.home", None, ["com.xyz.smart"]],
                             ids=["other-vendor", "absent", "list"])
    def test_an_envelope_of_a_vendor_without_a_key_is_denied(self, rig, keyset, bundle):
        sim, cloud, proxy, rng = rig
        cloud.register_vendor("com.abc.home", replace(keyset, secret1="abcsecretabcsecretabcsec"))
        envelope = {"a": protocol.ACTION_TOKEN_GET, "bundleId": bundle,
                    "postData": {"region": "EU", "userId": "user-01"}}
        if bundle is None:
            del envelope["bundleId"]
        before = cloud.requests_total
        with pytest.raises(PolicyDenied, match="no key"):
            proxy.relay_app_envelope(envelope)
        assert cloud.requests_total == before

    # the gateway checks the app's sign with the vendor key it holds; a sign
    # that does not verify sends nothing upstream, where the cloud would accept
    # the re-signed envelope
    @pytest.mark.parametrize("forge", [
        lambda sign: "00" * 32, None, lambda sign: [sign], lambda sign: 0,
    ], ids=["forged", "absent", "list", "number"])
    def test_an_envelope_whose_sign_does_not_verify_is_denied(self, rig, keyset, forge):
        sim, cloud, proxy, rng = rig
        app_config = AppConfig(
            bundle_id="com.xyz.smart", client_id="app-client", region="EU",
            user_id="user-01", keys=keyset,
        )
        app = MobileApp(
            sim, app_config, {"52.29.0.171": cloud}, rng=rng,
            dns_available=False, endpoint_id="phone", nonce_source=rng,
        )
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET, {"region": "EU", "userId": "user-01"}, sim.clock.now,
        )
        if forge is None:
            del envelope["sign"]
        else:
            envelope["sign"] = forge(envelope["sign"])
        before = cloud.requests_total
        with pytest.raises(PolicyDenied, match="sign does not verify"):
            proxy.relay_app_envelope(envelope)
        assert cloud.requests_total == before

    def test_an_envelope_nested_too_deeply_to_sign_is_denied(self, rig):
        sim, cloud, proxy, rng = rig
        denied, raised = [], []
        for depth in range(700, 1001):
            value = []
            for _ in range(depth):
                value = [value]
            # a sign, so that the gateway builds the signing string to check it
            envelope = {"a": protocol.ACTION_DEVICE_STATUS, "bundleId": "com.xyz.smart",
                        "postData": value, "sign": "00" * 32}
            before = cloud.requests_total
            try:
                proxy.relay_app_envelope(envelope)
            except PolicyDenied:
                denied.append(depth)
                assert cloud.requests_total == before
            except RecursionError:
                raised.append(depth)
        assert raised == []
        assert denied and denied[-1] == 1000

    # a field the signing string cannot render is a sign that does not verify
    @pytest.mark.parametrize("bad", [
        lambda env: env.update(postData=10**5000),
        lambda env: env["postData"].update(loop=env["postData"]),
        lambda env: env.update(postData=b"x"),
        lambda env: env.update(postData={1}),
        lambda env: env.update({1: "x"}),
        lambda env: env.update(sign=10**5000),
    ], ids=["past-digit-limit", "circular", "bytes", "set", "int-key", "sign-past-digit-limit"])
    def test_an_envelope_whose_fields_cannot_be_signed_is_denied(self, rig, bad):
        sim, cloud, proxy, rng = rig
        envelope = {"a": protocol.ACTION_TOKEN_GET, "bundleId": "com.xyz.smart",
                    "postData": {"region": "EU", "userId": "user-01"}, "sign": "00" * 32}
        bad(envelope)
        before = cloud.requests_total
        with pytest.raises(PolicyDenied, match="sign does not verify"):
            proxy.relay_app_envelope(envelope)
        assert cloud.requests_total == before


class TestDefaultPolicy:
    # every gateway is built from a ProxyPolicy object; one built with none
    # takes the defaults

    def test_defaults(self):
        assert ProxyPolicy() == ProxyPolicy(redact_fields=set())

    def test_default_sets_are_not_shared(self):
        first, second = ProxyPolicy(), ProxyPolicy()
        first.redact_fields.add("lat")
        assert second == ProxyPolicy()

    @pytest.fixture
    def plain(self, rig, keyset):
        sim, cloud, _, rng = rig
        config = AppConfig(
            bundle_id="com.xyz.smart", client_id="gw-client", region="EU",
            user_id="user-01", keys=keyset,
        )
        proxy = ProxyGateway(sim, config, {"52.29.0.171": cloud}, rng=rng,
                             endpoint_id="proxy-plain", dns_available=False,
                             nonce_source=rng)
        app = MobileApp(
            sim, replace(config, client_id="app-client"), {"52.29.0.171": cloud}, rng=rng,
            dns_available=False, endpoint_id="phone", nonce_source=rng,
        )
        return sim, cloud, proxy, app

    @pytest.mark.parametrize("action, post_obj", [
        (protocol.ACTION_TOKEN_GET, {"region": "EU", "userId": "user-01"}),
        (protocol.ACTION_DEVICE_STATUS, {"device_id": "bulb-01"}),
        (protocol.ACTION_DEVICE_CONTROL, {"device_id": "bulb-01", "command": {"power": "on"}}),
        (protocol.ACTION_DEVICE_BIND, {"device_id": "bulb-01", "token": "t" * 32,
                                       "ssid": "home-net", "passphrase": "hunter2-long"}),
    ], ids=["token-get", "status", "control", "bind"])
    def test_every_registered_action_is_forwarded_unredacted(self, plain, action, post_obj):
        sim, cloud, proxy, app = plain
        envelope = app.envelopes.build(action, post_obj, sim.clock.now)
        before = cloud.requests_total
        proxy.relay_app_envelope(envelope)
        assert cloud.requests_total == before + 1
        assert cloud.verify_failures == 0
        forwarded = cloud.last_envelope
        assert forwarded["a"] == action
        assert {k: v for k, v in forwarded.items() if k != "sign"} == {
            k: v for k, v in envelope.items() if k != "sign"}

    def test_an_unredacted_envelope_goes_upstream_as_the_app_signed_it(self, plain):
        sim, cloud, proxy, app = plain
        envelope = app.envelopes.build(
            protocol.ACTION_TOKEN_GET, {"region": "EU", "userId": "user-01"}, sim.clock.now,
        )
        # the cloud takes a sign in either case; a re-signed envelope's is lowercase
        envelope["sign"] = envelope["sign"].upper()
        assert proxy.relay_app_envelope(envelope)["success"] is True
        assert list(cloud.last_envelope.items()) == list(envelope.items())


class TestBindHijack:
    def test_a_bind_the_cloud_rejects_takes_no_channel(self, rig, keyset):
        sim, cloud, proxy, rng = rig
        device, _ = provision_proxied(sim, proxy, "bulb-11")
        # an endpoint on another decoy network binds as bulb-11
        decoy = proxy.allocate_virtual_network("plug-12")
        intruder = sim.register("intruder")
        sim.join(intruder, decoy.ssid, decoy.passphrase)
        stream = sim.open_stream(intruder, proxy.endpoint, protocol.DEVICE_PORT)
        received = []
        serve_frames(stream, lambda _stream, frame: received.append(frame))
        stream.send(encode_frame(DeviceFrame(
            kind="bind", device_id="bulb-11", token="t" * 32,
            payload={"ssid": decoy.ssid, "passphrase": decoy.passphrase,
                     "bundle_id": "com.xyz.smart"})))
        assert [f.payload for f in received] == [{"success": False, "reason": "Unknown"}]

        assert proxy.local_control("bulb-11", {"power": "on"})["power"] == "on"
        app = MobileApp(
            sim, AppConfig(bundle_id="com.xyz.smart", client_id="app-client", region="EU",
                           user_id="user-01", keys=keyset),
            {"52.29.0.171": cloud}, rng=rng, dns_available=False, endpoint_id="phone",
            nonce_source=rng,
        )
        envelope = app.envelopes.build(
            protocol.ACTION_DEVICE_CONTROL,
            {"device_id": "bulb-11", "command": {"brightness": 40}},
            sim.clock.now,
        )
        assert proxy.relay_app_envelope(envelope)["success"] is True
        assert device.attributes == {"power": "on", "brightness": 40}
        assert len(received) == 1  # no command reached the intruder

    def test_a_bind_for_no_decoy_network_opens_no_upstream(self, rig):
        sim, _cloud, proxy, _rng = rig
        decoy = proxy.allocate_virtual_network("plug-12")
        intruder = sim.register("intruder")
        sim.join(intruder, decoy.ssid, decoy.passphrase)
        stream = sim.open_stream(intruder, proxy.endpoint, protocol.DEVICE_PORT)
        received = []
        serve_frames(stream, lambda _stream, frame: received.append(frame))
        streams = list(sim._streams)
        for i in range(300):
            stream.send(encode_frame(DeviceFrame(
                kind="bind", device_id=f"ghost-{i}", token="t" * 32,
                payload={"ssid": decoy.ssid, "passphrase": decoy.passphrase,
                         "bundle_id": "com.xyz.smart"})))
        assert [f.payload for f in received] == [{"success": False, "reason": "Unknown"}] * 300
        assert proxy._upstream is None
        assert sim._streams == streams

    # the gateway's one upstream carries every fronted device's frames, so
    # binds the cloud rejects keep no stream per device id
    def test_rejected_binds_for_assigned_ids_add_at_most_one_upstream(self, rig):
        sim, _cloud, proxy, _rng = rig
        ids = [f"plug-{i:02d}" for i in range(50)]
        decoy = [proxy.allocate_virtual_network(device_id) for device_id in ids][0]
        intruder = sim.register("intruder")
        sim.join(intruder, decoy.ssid, decoy.passphrase)
        stream = sim.open_stream(intruder, proxy.endpoint, protocol.DEVICE_PORT)
        received = []
        serve_frames(stream, lambda _stream, frame: received.append(frame))
        streams = len(sim._streams)
        for device_id in ids:
            stream.send(encode_frame(DeviceFrame(
                kind="bind", device_id=device_id, token="t" * 32,
                payload={"ssid": decoy.ssid, "passphrase": decoy.passphrase,
                         "bundle_id": "com.xyz.smart"})))
        assert [f.payload for f in received] == [{"success": False, "reason": "Unknown"}] * 50
        assert len(sim._streams) <= streams + 2
        assert proxy._binding == {}

    def test_a_dark_cloud_bind_through_an_open_upstream_is_answered(self, rig):
        sim, cloud, proxy, _rng = rig
        device, net = provision_proxied(sim, proxy)  # its bind opened the upstream
        cloud.set_online(False)
        intruder = sim.register("intruder")
        sim.join(intruder, net.ssid, net.passphrase)
        stream = sim.open_stream(intruder, proxy.endpoint, protocol.DEVICE_PORT)
        received = []
        serve_frames(stream, lambda _stream, frame: received.append(frame))
        stream.send(encode_frame(DeviceFrame(
            kind="bind", device_id="bulb-01", token="t" * 32,
            payload={"ssid": net.ssid, "passphrase": net.passphrase,
                     "bundle_id": "com.xyz.smart"})))
        assert [f.payload for f in received] == [
            {"success": False, "reason": "UpstreamUnreachable"}]
        assert proxy._binding == {}
        # a bound device's frame that cannot go upstream is dropped
        proxy.channels.stream_of("bulb-01").far.send(encode_frame(DeviceFrame(
            kind="status", device_id="bulb-01", payload={"status": {"power": "on"}})))
        assert proxy.local_control("bulb-01", {"power": "on"})["power"] == "on"
        assert device.attributes["power"] == "on"


class TestConstruction:
    def test_rng_is_a_required_keyword(self, rig, keyset):
        # without rng the gateway used to build, then fail on its first
        # decoy network or signed envelope
        sim, cloud, _, rng = rig
        config = AppConfig(
            bundle_id="com.xyz.smart", client_id="gw-client", region="EU",
            user_id="user-01", keys=keyset,
        )
        with pytest.raises(TypeError, match="rng"):
            ProxyGateway(sim, config, {"52.29.0.171": cloud}, endpoint_id="proxy-norng")
        with pytest.raises(TypeError):
            ProxyGateway(sim, config, {"52.29.0.171": cloud}, None, rng,
                         endpoint_id="proxy-positional")

    def test_a_gateway_built_with_its_defaults_provisions_a_device(self, keyset):
        rng = random.Random(31)
        sim = Simulation(loss=LossModel(), clock=SimClock(1_613_000_000))
        cloud = VendorCloud(sim, rng=rng, nonce_source=rng)
        cloud.register_vendor("com.xyz.smart", keyset)
        config = AppConfig(
            bundle_id="com.xyz.smart", client_id="gw-client", region="EU",
            user_id="user-01", keys=keyset,
        )
        proxy = ProxyGateway(sim, config, {"52.29.0.171": cloud}, rng=rng)
        device, _ = provision_proxied(sim, proxy)
        assert device.phase is DevicePhase.REGISTERED


class TestUpstreamResolution:
    def test_region_without_endpoints_fails_the_provisioning(self, rig, keyset):
        sim, cloud, _, rng = rig
        config = AppConfig(
            bundle_id="com.xyz.smart", client_id="gw-client", region="XX",
            user_id="user-01", keys=keyset,
        )
        proxy = ProxyGateway(sim, config, {"52.29.0.171": cloud}, rng=rng,
                             endpoint_id="proxy-xx", dns_available=False)
        net = proxy.allocate_virtual_network("bulb-01")
        device = IoTDevice(sim, "bulb-01", proxy.endpoint)
        sim.join(device.endpoint, net.ssid, net.passphrase)
        outcome = proxy.provision_isolated("bulb-01", token="t" * 32, idle_hook=device.idle)
        assert not outcome.success
        assert "'XX'" in outcome.error
        assert device.phase is DevicePhase.REGISTER_FAILED
        assert device.events[-1]["detail"] == "cloud reject: UpstreamUnreachable"

    def _control_envelope(self, sim, cloud, keyset, rng):
        app = MobileApp(
            sim, AppConfig(bundle_id="com.xyz.smart", client_id="app-client", region="EU",
                           user_id="user-01", keys=keyset),
            {"52.29.0.171": cloud}, rng=rng, dns_available=False, endpoint_id="phone",
            nonce_source=rng,
        )
        return app.envelopes.build(
            protocol.ACTION_DEVICE_CONTROL,
            {"device_id": "bulb-01", "command": {"power": "on"}},
            sim.clock.now,
        )

    def test_a_dark_cloud_rejects_the_relay(self, rig, keyset):
        sim, cloud, proxy, rng = rig
        envelope = self._control_envelope(sim, cloud, keyset, rng)
        cloud.set_online(False)
        before = cloud.requests_total
        with pytest.raises(UpstreamRejected):
            proxy.relay_app_envelope(envelope)
        assert cloud.requests_total == before

    def test_a_region_without_endpoints_rejects_the_relay(self, rig, keyset):
        sim, cloud, _, rng = rig
        config = AppConfig(
            bundle_id="com.xyz.smart", client_id="gw-client", region="XX",
            user_id="user-01", keys=keyset,
        )
        proxy = ProxyGateway(sim, config, {"52.29.0.171": cloud}, rng=rng,
                             endpoint_id="proxy-xx", dns_available=False)
        envelope = self._control_envelope(sim, cloud, keyset, rng)
        before = cloud.requests_total
        with pytest.raises(UpstreamRejected):
            proxy.relay_app_envelope(envelope)
        assert cloud.requests_total == before


class TestLocalControl:
    def test_local_control_with_cloud_down(self, rig):
        sim, cloud, proxy, _ = rig
        device, _ = provision_proxied(sim, proxy)
        cloud.set_online(False)
        status = proxy.local_control("bulb-01", {"power": "on"})
        assert status["power"] == "on"
        assert device.attributes["power"] == "on"

    @pytest.mark.parametrize("brightness", [True, 101])
    def test_local_command_of_the_wrong_type_is_refused(self, rig, brightness):
        sim, _cloud, proxy, _ = rig
        device, _ = provision_proxied(sim, proxy)
        with pytest.raises(LocalCommandRefused) as refused:
            proxy.local_control("bulb-01", {"brightness": brightness})
        assert refused.value.reason == "UnknownCommand"
        assert device.attributes == {"power": "off", "brightness": 0}
        assert type(device.attributes["brightness"]) is int

    def test_unknown_device(self, rig):
        _, _, proxy, _ = rig
        with pytest.raises(DeviceOffline):
            proxy.local_control("ghost", {"power": "on"})


class TestKeyPipeline:
    def test_keys_from_bmp(self, keyset):
        image = make_bmp(64, 64)
        carrier = stego_embed(
            image, "seed-string", StegoRecord(keys=[keyset.secret2.encode()])
        )
        keys = keys_from_bmp(
            carrier, "seed-string", cert_hash=keyset.cert_hash,
            secret1=keyset.secret1,
        )
        assert keys == keyset

    def test_keys_from_a_bmp_file(self, keyset, tmp_path):
        # the asset as the app ships it: a file on disk, parsed back
        carrier = stego_embed(
            make_bmp(64, 64), "8c4wxjarqdtnuju4wut5",
            StegoRecord(keys=[keyset.secret2.encode()]),
        )
        path = tmp_path / "asset.bmp"
        path.write_bytes(carrier.to_bytes())
        keys = keys_from_bmp(
            parse_bmp(path.read_bytes()), "8c4wxjarqdtnuju4wut5",
            cert_hash=keyset.cert_hash, secret1=keyset.secret1,
        )
        assert keys == keyset

    def test_wrong_seed_finds_no_key(self, keyset):
        carrier = stego_embed(
            make_bmp(64, 64), "seed-string", StegoRecord(keys=[keyset.secret2.encode()])
        )
        with pytest.raises(MagicMismatch):
            keys_from_bmp(carrier, "other-seed", cert_hash=keyset.cert_hash,
                          secret1=keyset.secret1)
