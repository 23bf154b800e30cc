import random

import pytest

from provlab import dpl
from provlab.cloud import CloudUnreachable, VendorCloud
from provlab.device import DevicePhase, IoTDevice
from provlab.netsim import LossModel, SimClock, Simulation
from provlab.provisioner import (
    RESEND_ROUNDS,
    AppConfig,
    CloudRejected,
    EnvelopeFactory,
    MobileApp,
    UnknownRegion,
    hardcoded_endpoints,
    resolve_cloud_endpoint,
)
from provlab.signing import SigningKeySet


class TestEndpointFallback:
    def test_tables_verbatim(self):
        assert hardcoded_endpoints("IN") == ["13.234.164.70", "13.234.09.49"]
        assert hardcoded_endpoints("AZ") == ["35.167.213.203", "52.27.05.79"]
        assert hardcoded_endpoints("EU") == ["52.29.0.171", "35.156.160.91"]
        assert hardcoded_endpoints("AY") == ["162.14.14.134"]

    def test_unknown_region_empty(self):
        assert hardcoded_endpoints("ZZ") == []

    def test_resolve_falls_back_when_dns_down(self, sim, rng):
        cloud = VendorCloud(sim, rng=rng)
        directory = {"52.29.0.171": cloud, "35.156.160.91": cloud}
        addr, got = resolve_cloud_endpoint("EU", False, {}, directory)
        assert addr == "52.29.0.171"  # first reachable wins
        assert got is cloud

    def test_resolve_skips_dead_first_choice(self, sim, rng):
        cloud = VendorCloud(sim, rng=rng)
        directory = {"35.156.160.91": cloud}  # first EU address not present
        addr, _ = resolve_cloud_endpoint("EU", False, {}, directory)
        assert addr == "35.156.160.91"

    def test_resolve_unknown_region(self, sim, rng):
        with pytest.raises(UnknownRegion):
            resolve_cloud_endpoint("ZZ", False, {}, {})

    def test_dns_answers_used_when_available(self, sim, rng):
        cloud = VendorCloud(sim, rng=rng)
        directory = {"10.0.0.1": cloud}
        addr, _ = resolve_cloud_endpoint("EU", True, {"EU": ["10.0.0.1"]}, directory)
        assert addr == "10.0.0.1"

    def test_all_candidates_dead(self, sim, rng):
        cloud = VendorCloud(sim, rng=rng)
        cloud.set_online(False)
        directory = {"52.29.0.171": cloud, "35.156.160.91": cloud}
        with pytest.raises(CloudUnreachable):
            resolve_cloud_endpoint("EU", False, {}, directory)

    def test_cloud_presence_is_the_sims(self, sim, rng):
        cloud = VendorCloud(sim, rng=rng)
        sim.set_online(cloud.endpoint, False)
        assert cloud.online is False
        with pytest.raises(CloudUnreachable):
            resolve_cloud_endpoint("EU", False, {}, {"52.29.0.171": cloud})
        cloud.set_online(True)
        assert sim.is_online(cloud.endpoint)


@pytest.fixture
def rig(keyset):
    return _rig(keyset, random.Random(5), LossModel())


def _rig(keyset, rng, loss):
    sim = Simulation(loss=loss, clock=SimClock(1_613_000_000))
    cloud = VendorCloud(sim, rng=rng, nonce_source=rng)
    cloud.register_vendor("com.xyz.smart", keyset)
    sim.create_network("home-net", "hunter2-long")
    config = AppConfig(
        bundle_id="com.xyz.smart", client_id="client-01", region="EU",
        user_id="user-01", keys=keyset,
    )
    app = MobileApp(
        sim, config, {"52.29.0.171": cloud}, rng=rng,
        dns_available=False, nonce_source=rng,
    )
    sim.join(app.endpoint, "home-net", "hunter2-long")
    return sim, cloud, app, rng


class TestAcquireToken:
    def test_fresh_token(self, rig):
        sim, cloud, app, _ = rig
        token = app.acquire_token()
        assert len(token.value) == 32
        assert token.acquired_at == sim.clock.now
        assert cloud.registry.tokens.get(token.value) is not None

    def test_an_app_built_with_its_defaults_gets_a_token(self, keyset):
        rng = random.Random(5)
        sim = Simulation(loss=LossModel(), clock=SimClock(1_613_000_000))
        cloud = VendorCloud(sim, rng=rng, nonce_source=rng)
        cloud.register_vendor("com.xyz.smart", keyset)
        config = AppConfig(
            bundle_id="com.xyz.smart", client_id="client-01", region="EU",
            user_id="user-01", keys=keyset,
        )
        token = MobileApp(sim, config, {"52.29.0.171": cloud}, rng).acquire_token()
        assert cloud.registry.tokens.get(token.value) is not None

    def test_wrong_secret2_rejected(self, rig, keyset):
        sim, cloud, app, rng = rig
        bad = AppConfig(
            bundle_id="com.xyz.smart", client_id="client-01", region="EU",
            user_id="user-01",
            keys=SigningKeySet(keyset.cert_hash, keyset.secret1, "w" * 32),
        )
        impostor = MobileApp(
            sim, bad, {"52.29.0.171": cloud}, rng=rng,
            dns_available=False, endpoint_id="impostor", nonce_source=rng,
        )
        with pytest.raises(CloudRejected) as err:
            impostor.acquire_token()
        assert "BadSignature" in str(err.value)

    def test_envelope_carries_configured_identity(self, rig):
        sim, cloud, app, _ = rig
        app.acquire_token()
        env = cloud.last_envelope
        assert env["bundleId"] == "com.xyz.smart"
        assert env["clientId"] == "client-01"
        assert env["a"] == "tuya.m.token.get"
        for name in ("time", "lang", "deviceId", "postData", "requestId", "sign"):
            assert name in env

    def test_envelope_is_pinned(self, keyset):
        # every key, value, insertion order and the sign of one app envelope
        config = AppConfig(
            bundle_id="com.xyz.smart", client_id="tt3advw3as8se94muvt9", region="EU",
            user_id="user-01", keys=keyset,
        )
        rng = random.Random(7)
        envelope = EnvelopeFactory(config, rng, nonce_source=rng).build(
            "tuya.m.token.get", {"region": "EU", "userId": "user-01"}, 1_613_163_767)
        assert list(envelope.items()) == [
            ("time", 1613163767),
            ("lang", "en"),
            ("deviceId", "CAAC4B69-A95B-4483-801D-000000000001"),
            ("et", "0.0.1"),
            ("osSystem", "14.2"),
            ("bundleId", "com.xyz.smart"),
            ("lon", -90.0),
            ("channel", "oem"),
            ("appVersion", "1.1.2"),
            ("ttid", "appstore"),
            ("v", "1.0"),
            ("sid", "az16113405328608e6hqj3z3"),
            ("platform", "iPhone"),
            ("postData", "UvImZaYMEtKJGF2VrdUlTAKBQViOD9pGIevEEr0cCgogsQO70xAY"
                         "+Ln/xz47U/DSAtMuUj9X0KpYyVK8DLqQazo="),
            ("requestId", "00000001-1612DD272D13"),
            ("sdVersion", "3.20.1"),
            ("timeZoneId", "America/Chicago"),
            ("lat", 90.0),
            ("clientId", "tt3advw3as8se94muvt9"),
            ("a", "tuya.m.token.get"),
            ("appRnVersion", "5.29"),
            ("sign", "62cb8b48452427a3e039a5781e7200e08b0a90b855057192028a474ccfeeb805"),
        ]


class TestProvisionFlow:
    def test_broadcast_into_empty_network_times_out(self, rig):
        sim, cloud, app, _ = rig
        token = app.acquire_token()
        t0, requests0 = sim.clock.now, cloud.requests_total
        outcome = app.provision(
            dpl.Credentials("home-net", "hunter2-long", token.value), rounds=1
        )
        assert not outcome.success
        assert outcome.error == "Timeout"
        # the whole 30 s window elapsed, one status poll every 2 s from t0 to t0+30
        assert sim.clock.now - t0 == 30
        assert cloud.requests_total - requests0 == 16

    def test_a_timeout_broadcasts_one_more_round_before_each_wait(self, rig):
        sim, _cloud, app, _ = rig
        token = app.acquire_token()
        creds = dpl.Credentials("home-net", "hunter2-long", token.value)
        idles = []
        outcome = app.provision(creds, rounds=2, idle_hook=lambda: idles.append(sim.clock.now))
        assert outcome.error == "Timeout"
        # two rounds, then RESEND_ROUNDS more before each of the 15 waits
        sent = [row[4] for row in sim.capture.frames() if row[5] == "bcast"]
        assert sent == dpl.encode(creds, 2) + dpl.encode(creds, RESEND_ROUNDS) * 15
        t0 = sim.clock.now - 30
        # the idle hook runs after the broadcast and after each resend
        assert idles == [t0] + [t0 + 2 * k for k in range(15)]

    def test_a_lossy_provisioning_two_bytes_short_after_its_broadcast_completes(
        self, keyset
    ):
        # at this seed the five rounds leave the device's attempt COLLECTING with
        # 53 of its 55 slots voted, which finalize cannot fill; one resent round does
        sim, cloud, app, _ = _rig(keyset, random.Random(5854),
                                  LossModel(drop_prob=0.1, dup_prob=0.05, seed=5854))
        device = IoTDevice(sim, "bulb-01", cloud.endpoint)
        sim.join(device.endpoint, "home-net", "hunter2-long")
        token = app.acquire_token()
        after_burst = []

        def idle():
            device.idle()
            if not after_burst:
                (state,) = device.bank._attempts.values()
                after_burst.append((state.phase, len(state.slots), state.expected_len))

        outcome = app.provision(dpl.Credentials("home-net", "hunter2-long", token.value),
                                idle_hook=idle)
        assert after_burst == [(dpl.COLLECTING, 53, 55)]
        assert outcome.success and outcome.device_id == "bulb-01"
        assert device.phase is DevicePhase.REGISTERED

    def test_cloud_down_means_unreachable(self, rig):
        sim, cloud, app, _ = rig
        cloud.set_online(False)
        with pytest.raises(CloudUnreachable):
            app.acquire_token()

    def test_unknown_device_control(self, rig):
        from provlab.cloud import DeviceOffline

        sim, cloud, app, _ = rig
        with pytest.raises(DeviceOffline):
            app.control_device("ghost-device", {"power": "on"})
