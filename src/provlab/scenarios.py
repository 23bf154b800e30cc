"""Named, deterministic experiment scenarios.

Each scenario builds a fresh simulation from one seed, drives the
protocol end to end, and checks its expectations against what the
capture log and registries actually show.  Reports are plain JSON so a
rerun with the same (name, seed) is byte-identical.

A new scenario is one ``@_scenario`` body, plus its ``name@0`` and
``name@2026`` entries in ``tests/golden.json``.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from . import dpl, protocol
from .cloud import CloudUnreachable, VendorCloud
from .device import DevicePhase, IoTDevice
from .netsim import LossModel, PeerUnreachable, SimClock, Simulation
from .protocol import TOKEN_ALPHABET, DeviceFrame, FrameReader, encode_frame
from .provisioner import (
    AppConfig,
    IssuedToken,
    MobileApp,
    ProvisionOutcome,
    hardcoded_endpoints,
    keys_from_bmp,
)
from .proxy import PolicyDenied, ProxyGateway, ProxyPolicy
from .signing import SigningKeySet, derive_signing_key, sign_envelope
from .stego import InsufficientCapacity, StegoRecord, make_bmp, stego_embed

HOME_SSID = "home-net"
EPOCH = 1_613_000_000


class UnknownScenario(KeyError):
    pass


_json_str = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it
_JSON_BOOL = {False: "false", True: "true"}


@dataclass
class Step:
    expect: str
    observe: str
    ok: bool


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    steps: list[Step] = field(default_factory=list)

    def check(self, expect: str, observe, ok: bool) -> bool:
        self.steps.append(Step(expect=expect, observe=str(observe), ok=bool(ok)))
        return bool(ok)

    def check_eq(self, expect: str, actual, wanted) -> bool:
        return self.check(expect, actual, actual == wanted)

    @property
    def passed(self) -> bool:
        return all(s.ok for s in self.steps)

    def to_json(self) -> str:
        """The report as ``json.dumps(..., sort_keys=True, indent=2)`` writes it,
        and a newline, written directly from its fixed shape."""
        steps = "".join(
            f'\n    {{\n      "expect": {_json_str(s.expect)},\n      "observe": '
            f'{_json_str(s.observe)},\n      "pass": {_JSON_BOOL[s.ok]}\n    }},'
            for s in self.steps)
        steps = f"[{steps[:-1]}\n  ]" if steps else "[]"
        return (f'{{\n  "pass": {_JSON_BOOL[self.passed]},\n  "scenario": '
                f'{_json_str(self.scenario)},\n  "seed": {int.__repr__(self.seed)},\n'
                f'  "steps": {steps}\n}}\n')


@dataclass
class World:
    """One scenario's simulation universe."""

    rng: random.Random
    clock: SimClock
    sim: Simulation
    cloud: VendorCloud
    directory: dict[str, VendorCloud]
    keys: dict[str, SigningKeySet]
    home_passphrase: str


_CARRIER = make_bmp(64, 64)  # the app asset every vendor's secret2 is hidden in


def _vendor_keys(rng: random.Random) -> SigningKeySet:
    """Generate a vendor key set, routing secret2 through the stego
    pipeline exactly like a real extraction run would."""
    secret2 = "".join(rng.choice(TOKEN_ALPHABET) for _ in range(32))
    record = StegoRecord(keys=[secret2.encode("ascii")])
    while True:
        # the embed offset is seed-derived and can land too close to the
        # end of the pixel array; draw a fresh seed string until it fits
        seed_str = "".join(rng.choice(TOKEN_ALPHABET) for _ in range(20))
        try:
            carrier = stego_embed(_CARRIER, seed_str, record)
            break
        except InsufficientCapacity:
            continue
    return keys_from_bmp(
        carrier,
        seed_str,
        cert_hash="".join(rng.choice("0123456789abcdef") for _ in range(16)),
        secret1="".join(rng.choice(TOKEN_ALPHABET) for _ in range(24)),
    )


def build_world(
    seed: int,
    bundles: tuple[str, ...] = ("com.xyz.smart",),
    loss: LossModel | None = None,
) -> World:
    rng = random.Random(seed)
    clock = SimClock(EPOCH)
    sim = Simulation(loss=loss or LossModel(seed=seed), clock=clock)
    cloud = VendorCloud(sim, rng=rng, nonce_source=rng)
    keys = {}
    for bundle in bundles:
        keys[bundle] = _vendor_keys(rng)
        cloud.register_vendor(bundle, keys[bundle])
    directory = {addr: cloud for addr in hardcoded_endpoints("EU")}
    home_psk = "".join(rng.choice(TOKEN_ALPHABET) for _ in range(12))
    sim.create_network(HOME_SSID, home_psk)
    return World(rng=rng, clock=clock, sim=sim, cloud=cloud,
                 directory=directory, keys=keys, home_passphrase=home_psk)


def _config(world: World, client_id: str, bundle: str = "com.xyz.smart",
            user: str = "user-01") -> AppConfig:
    return AppConfig(
        bundle_id=bundle,
        client_id=client_id,
        region="EU",
        user_id=user,
        keys=world.keys[bundle],
    )


def _app(world: World, bundle: str = "com.xyz.smart", user: str = "user-01") -> MobileApp:
    app = MobileApp(
        world.sim,
        _config(world, "tt3advw3as8se94muvt9", bundle, user),
        world.directory,
        rng=world.rng,
        nonce_source=world.rng,
    )
    world.sim.join(app.endpoint, HOME_SSID, world.home_passphrase)
    return app


def _device(world: World, device_id: str, cloud_endpoint=None,
            join_home: bool = True, bundle: str = "com.xyz.smart") -> IoTDevice:
    dev = IoTDevice(
        world.sim,
        device_id,
        cloud_endpoint or world.cloud.endpoint,
        bundle_id=bundle,
    )
    if join_home:
        # stands in for radio proximity: an unprovisioned device hears the
        # broadcast domain it is physically next to
        world.sim.join(dev.endpoint, HOME_SSID, world.home_passphrase)
    return dev


def _provision(
    world: World, app: MobileApp, device: IoTDevice
) -> tuple[IssuedToken, ProvisionOutcome]:
    """Acquire a token and provision ``device`` onto the home network."""
    token = app.acquire_token()
    outcome = app.provision(
        dpl.Credentials(HOME_SSID, world.home_passphrase, token.value),
        idle_hook=device.idle,
    )
    return token, outcome


def _proxy(world: World, policy: ProxyPolicy, endpoint_id: str = "proxy-gw") -> ProxyGateway:
    return ProxyGateway(
        world.sim,
        _config(world, "gw-client-0001"),
        world.directory,
        policy=policy,
        rng=world.rng,
        home_ssid=HOME_SSID,
        endpoint_id=endpoint_id,
        nonce_source=world.rng,
    )


def _isolated_device(
    world: World, proxy: ProxyGateway, device_id: str
) -> tuple[IoTDevice, ProvisionOutcome]:
    """Provision one device onto its own decoy network through the proxy."""
    net = proxy.allocate_virtual_network(device_id)
    dev = _device(world, device_id, cloud_endpoint=proxy.endpoint, join_home=False)
    world.sim.join(dev.endpoint, net.ssid, net.passphrase)
    return dev, proxy.provision_isolated(device_id, idle_hook=dev.idle)


def _send_frame(world: World, attacker_id: str, peer, frame: DeviceFrame) -> list[DeviceFrame]:
    """A new endpoint joins the home network, sends ``frame`` to ``peer``'s
    device port and returns the frames it gets back."""
    attacker = world.sim.register(attacker_id)
    world.sim.join(attacker, HOME_SSID, world.home_passphrase)
    stream = world.sim.open_stream(attacker, peer, protocol.DEVICE_PORT)
    stream.send(encode_frame(frame))
    return FrameReader().push(stream.recv())


def _frames_from(world: World, src_id: str) -> int:
    """Capture records sent by ``src_id``, counted from its frames."""
    return sum(1 if len(row) == 7 else 1 + len(row[7]) + row[7].count(2)
               for row in world.sim.capture.frames() if row[2] == src_id)


def _copies_to(world: World, pairs: set[tuple[str, str]]) -> int:
    """Broadcast copies delivered on ``ssid`` to ``dst``, summed over the ``(ssid, dst)``
    pairs, from the frame rows: a frame's receivers are distinct, so each named
    receiver's outcome byte is its copy count."""
    return sum(row[7][row[6].index(dst)] for row in world.sim.capture.frames()
               if len(row) == 8 for ssid, dst in pairs if row[1] == ssid and dst in row[6])


def _sniffed_tokens(world: World, src_id: str) -> list[str]:
    """Tokens an eavesdropper recovers from ``src_id``'s broadcasts."""
    return [
        state.credentials.token
        for src, state in dpl.decode_capture(world.sim.capture.frames())
        if src == src_id and state.phase is dpl.Phase.COMPLETE
    ]


def _raises(exc: type[Exception], fn, *args) -> bool:
    """Whether ``fn(*args)`` raises ``exc``."""
    try:
        fn(*args)
    except exc:
        return True
    return False


SCENARIOS: dict[str, Callable[[int], ScenarioReport]] = {}


def _scenario(name: str, bundles: tuple[str, ...] = ("com.xyz.smart",)):
    """File a ``body(report, world)`` under ``name``; the function it returns
    runs the body on a fresh world built from a seed and returns the report."""
    def register(body: Callable[[ScenarioReport, World], None]):
        def run(seed: int) -> ScenarioReport:
            report = ScenarioReport(name, seed)
            world = build_world(seed, bundles)
            try:
                body(report, world)
            finally:
                # closing breaks the world's reference cycles, so it is freed
                world.sim.close()
            return report

        SCENARIOS[name] = run
        return run

    return register


def run_scenario(name: str, seed: int) -> ScenarioReport:
    fn = SCENARIOS.get(name)
    if fn is None:
        raise UnknownScenario(name)
    return fn(seed)


# -- token experiments (the three cases) --------------------------------------


@_scenario("token-case-1")
def scenario_token_case_1(report: ScenarioReport, world: World) -> None:
    device = _device(world, "bulb-01")
    rig = _app(world, user="rig")
    token16 = "".join(world.rng.choice(TOKEN_ALPHABET) for _ in range(16))
    payload = dpl.frame_fields(HOME_SSID, world.home_passphrase, token16)
    world.sim.broadcast_lengths(rig.endpoint, dpl.PROVISION_PORT,
                                dpl.encode_payload(payload, rounds=1))
    device.idle()
    report.check_eq(
        "device indicates credentials received, then rejects the short token",
        device.phase.value, DevicePhase.CREDS_REJECTED.value,
    )
    events = [e["event"] for e in device.events]
    report.check(
        "event log shows CredsReceived before CredsRejected",
        events,
        "CredsReceived" in events
        and events.index("CredsReceived") < events.index("CredsRejected"),
    )
    report.check_eq(
        "no packets are generated by the device (zero device-origin frames)",
        _frames_from(world, "bulb-01"), 0,
    )
    report.check_eq(
        "device never bound cloud-side", world.cloud.registry.devices, {}
    )


def _run_direct_broadcast_case(
    report: ScenarioReport, world: World, token: str
) -> IoTDevice:
    """Shared body for the 32-char-token cases: credentials are encoded and
    broadcast directly, with no vendor app in the loop."""
    device = _device(world, "bulb-01")
    rig = _app(world, user="rig")
    creds = dpl.Credentials(HOME_SSID, world.home_passphrase, token)
    rig.broadcast_credentials(creds, rounds=1)
    device.idle()
    report.check(
        "device accepts the 32-char token and attempts a cloud bind",
        f"{_frames_from(world, 'bulb-01')} device frames",
        _frames_from(world, "bulb-01") > 0,
    )
    return device


@_scenario("token-case-2-random")
def scenario_token_case_2_random(report: ScenarioReport, world: World) -> None:
    token = protocol.generate_token_value(world.rng)  # never issued
    device = _run_direct_broadcast_case(report, world, token)
    report.check_eq(
        "vendor cloud rejects the never-issued token; registration fails",
        device.phase.value, DevicePhase.REGISTER_FAILED.value,
    )
    report.check(
        "reject reason is Unknown",
        device.events[-1]["detail"],
        "Unknown" in device.events[-1]["detail"],
    )


@_scenario("token-case-2-stale")
def scenario_token_case_2_stale(report: ScenarioReport, world: World) -> None:
    app = _app(world)
    token = app.acquire_token()
    world.clock.advance(protocol.TTL_SECONDS + 100)  # well past the window
    device = _run_direct_broadcast_case(report, world, token.value)
    report.check_eq(
        "vendor cloud rejects the stale token; registration fails",
        device.phase.value, DevicePhase.REGISTER_FAILED.value,
    )
    rec = world.cloud.registry.tokens.get(token.value)
    report.check_eq("cloud recorded the Expired verdict", rec.last_reject, "Expired")


@_scenario("token-case-3")
def scenario_token_case_3(report: ScenarioReport, world: World) -> None:
    device = _device(world, "bulb-01")
    app = _app(world)
    token, outcome = _provision(world, app, device)
    report.check_eq("issued token is 32 characters", len(token.value), 32)
    report.check(
        "setup and registration finishes successfully",
        outcome, outcome.success and outcome.device_id == "bulb-01",
    )
    report.check_eq("device is Registered", device.phase.value, "Registered")
    status = app.control_device("bulb-01", {"power": "on"})
    report.check_eq("app controls the device via the cloud", status.get("power"), "on")
    sniffed = _sniffed_tokens(world, app.endpoint)
    report.check(
        "token broadcast over the air equals the token the cloud issued",
        sniffed[0] if sniffed else None,
        bool(sniffed) and sniffed[0] == token.value,
    )
    direct = [
        row
        for row in world.sim.capture.frames()
        if row[2] == app.endpoint and row[5] == "stream" and row[6] == "bulb-01"
    ]
    report.check_eq(
        "app never talks to the device outside port-30011 broadcasts",
        len(direct), 0,
    )


# -- replay and isolation -------------------------------------------------------


@_scenario("replay-defense")
def scenario_replay_defense(report: ScenarioReport, world: World) -> None:
    device = _device(world, "bulb-01")
    app = _app(world)
    token, outcome = _provision(world, app, device)
    report.check("legitimate provisioning succeeds", outcome, outcome.success)

    # the attacker sniffs the broadcast, recovers the token, and replays it
    sniffed = _sniffed_tokens(world, app.endpoint)
    report.check(
        "attacker recovers the token from captured packet lengths",
        bool(sniffed), bool(sniffed) and sniffed[0] == token.value,
    )
    acks = _send_frame(world, "attacker-rig", world.cloud.endpoint, DeviceFrame(
        kind="bind", device_id="rogue-device", token=token.value,
        payload={"ssid": HOME_SSID, "passphrase": world.home_passphrase,
                 "bundle_id": "com.xyz.smart"}))
    report.check(
        "replayed bind is rejected as AlreadyBound",
        acks[0].payload if acks else None,
        bool(acks)
        and not acks[0].payload.get("success")
        and acks[0].payload.get("reason") == "AlreadyBound",
    )
    report.check(
        "the rogue device never enters the registry",
        sorted(world.cloud.registry.devices),
        "rogue-device" not in world.cloud.registry.devices,
    )


def _isolated_pair(
    report: ScenarioReport,
    world: World,
    device_ids: tuple[str, str] = ("bulb-01", "plug-02"),
    proxy_id: str = "proxy-gw",
):
    """Bring up two devices on their own decoy networks via the proxy."""
    proxy = _proxy(world, ProxyPolicy(), endpoint_id=proxy_id)
    devices = []
    for device_id in device_ids:
        dev, outcome = _isolated_device(world, proxy, device_id)
        report.check(
            f"{device_id} provisions successfully on its fake network",
            outcome, outcome.success,
        )
        devices.append(dev)
    return proxy, devices


@_scenario("isolation-two-devices")
def scenario_isolation_two_devices(report: ScenarioReport, world: World) -> None:
    proxy, (dev_a, dev_b) = _isolated_pair(report, world)
    net_a = proxy.assignments["bulb-01"]
    net_b = proxy.assignments["plug-02"]
    report.check(
        "the two fake networks are distinct with distinct passphrases",
        (net_a.ssid, net_b.ssid),
        net_a.ssid != net_b.ssid and net_a.passphrase != net_b.passphrase,
    )
    cross = _copies_to(world, {(net_a.ssid, "plug-02"), (net_b.ssid, "bulb-01")})
    report.check_eq("cross-network delivered frames", cross, 0)
    foot_a = world.cloud.stored_footprint("bulb-01")
    foot_b = world.cloud.stored_footprint("plug-02")
    report.check(
        "cloud footprints carry only the fake SSIDs",
        (foot_a["ssid"], foot_b["ssid"]),
        foot_a["ssid"] == net_a.ssid and foot_b["ssid"] == net_b.ssid,
    )
    snapshot = world.cloud.registry.to_json()
    report.check(
        "the true home SSID appears nowhere cloud-side",
        f"'{HOME_SSID}' in snapshot: {HOME_SSID in snapshot}",
        HOME_SSID not in snapshot,
    )
    report.check(
        "the home passphrase appears nowhere cloud-side",
        "(checked against registry snapshot)",
        world.home_passphrase not in snapshot,
    )


@_scenario("hijack-surface")
def scenario_hijack_surface(report: ScenarioReport, world: World) -> None:
    """The open-listener vulnerability, then the isolation mitigation."""

    # baseline: attacker co-resident on the same network commands the device
    device = _device(world, "bulb-01")
    app = _app(world)
    _token, outcome = _provision(world, app, device)
    report.check("victim device registers on the shared network", outcome, outcome.success)
    acks = _send_frame(world, "evil-plug", device.endpoint, DeviceFrame(
        kind="command", device_id="bulb-01", payload={"command": {"power": "on"}},
        request_id="hijack-1"))
    report.check(
        "co-resident attacker commands the device over its open port",
        device.attributes,
        bool(acks) and acks[0].payload.get("success")
        and device.attributes["power"] == "on",
    )

    # mitigation: same attack across isolation networks delivers nothing
    proxy, (dev_a, dev_b) = _isolated_pair(
        report, world, device_ids=("bulb-11", "plug-12"), proxy_id="proxy-iso"
    )
    attacker2 = world.sim.register("evil-plug-2")
    net_b = proxy.assignments["plug-12"]
    world.sim.join(attacker2, net_b.ssid, net_b.passphrase)  # compromised co-tenant
    before = _frames_from(world, "evil-plug-2")
    reached = not _raises(PeerUnreachable, world.sim.open_stream,
                          attacker2, dev_a.endpoint, protocol.DEVICE_PORT)
    after = _frames_from(world, "evil-plug-2")
    report.check(
        "attack across isolation networks cannot reach the device",
        f"stream open succeeded: {reached}", not reached,
    )
    report.check_eq(
        "zero frames delivered from the cross-network attacker", after - before, 0
    )
    report.check_eq(
        "victim device state untouched by the second attack",
        dev_a.attributes["power"], "off",
    )


# -- proxy scenarios ---------------------------------------------------------------


@_scenario("proxy-transparency")
def scenario_proxy_transparency(report: ScenarioReport, world: World) -> None:

    # direct path device
    direct_dev = _device(world, "bulb-direct")
    app = _app(world)
    _token, outcome = _provision(world, app, direct_dev)
    report.check("direct-path device registers", outcome, outcome.success)

    # proxied device
    proxy = _proxy(world, ProxyPolicy(redact_fields={"lat", "lon"}))
    prox_dev, outcome2 = _isolated_device(world, proxy, "bulb-proxied")
    report.check("proxied device registers through the proxy", outcome2, outcome2.success)

    # identical command sequence down both paths
    commands = [{"power": "on"}, {"brightness": 70}, {"power": "off"}, {"power": "on"}]
    for command in commands:
        app.control_device("bulb-direct", command)
        envelope = app.envelopes.build(
            protocol.ACTION_DEVICE_CONTROL,
            {"device_id": "bulb-proxied", "command": command},
            world.clock.now,
        )
        response = proxy.relay_app_envelope(envelope)
        report.check(
            f"proxied command {command} accepted upstream",
            response.get("success"), response.get("success") is True,
        )
    report.check_eq(
        "device state after proxied control equals state after direct control",
        prox_dev.attributes, direct_dev.attributes,
    )
    report.check_eq(
        "every proxy-originated envelope verified at the cloud",
        world.cloud.verify_failures, 0,
    )
    last = world.cloud.last_envelope
    report.check(
        "redacted fields reach the cloud as placeholders yet verify",
        {k: last.get(k) for k in ("lat", "lon")},
        last is not None and last["lat"] == 0.0 and last["lon"] == 0.0,
    )
    denied = _raises(PolicyDenied, proxy.relay_app_envelope,
                     app.envelopes.build("m.factory.reset", {}, world.clock.now))
    report.check("an action outside the policy is refused locally", "PolicyDenied", denied)


@_scenario("proxy-offline-control")
def scenario_proxy_offline_control(report: ScenarioReport, world: World) -> None:
    proxy = _proxy(world, ProxyPolicy())
    device, outcome = _isolated_device(world, proxy, "bulb-01")
    report.check("device registers via the proxy", outcome, outcome.success)
    status = proxy.local_control("bulb-01", {"power": "on"})
    report.check_eq("warm-up command over the local path", status.get("power"), "on")

    world.cloud.set_online(False)  # the vendor cloud goes dark
    app = _app(world)
    down = _raises(CloudUnreachable, app.control_device, "bulb-01", {"power": "off"})
    cloud_path = "CloudUnreachable" if down else "succeeded"
    report.check_eq(
        "cloud-path control fails with the cloud down", cloud_path, "CloudUnreachable"
    )
    status = proxy.local_control("bulb-01", {"power": "off"})
    report.check_eq(
        "proxy local control still works with the cloud down",
        status.get("power"), "off",
    )
    report.check_eq("device actually obeyed", device.attributes["power"], "off")


@_scenario("stovepipe-baseline")
def scenario_stovepipe_baseline(report: ScenarioReport, world: World) -> None:
    device = _device(world, "bulb-01")
    app = _app(world)
    _token, outcome = _provision(world, app, device)
    report.check("device registers over the direct path", outcome, outcome.success)
    report.check(
        "app and device share the home network",
        sorted(world.sim.networks_of(app.endpoint) & world.sim.networks_of(device.endpoint)),
        HOME_SSID in world.sim.networks_of(app.endpoint)
        and HOME_SSID in world.sim.networks_of(device.endpoint),
    )
    world.cloud.set_online(False)
    failed = _raises(CloudUnreachable, app.control_device, "bulb-01", {"power": "on"})
    report.check(
        "with the cloud down the user loses control despite the shared LAN",
        "CloudUnreachable" if failed else "control succeeded", failed,
    )
    report.check_eq("device state unchanged", device.attributes["power"], "off")


@_scenario("multi-vendor", bundles=("com.xyz.smart", "com.abc.home"))
def scenario_multi_vendor(report: ScenarioReport, world: World) -> None:
    bundles = tuple(world.keys)
    apps = {}
    for i, bundle in enumerate(bundles):
        app = _app(world, bundle=bundle, user=f"user-{i+1:02d}")
        device = _device(world, f"dev-{i+1:02d}", bundle=bundle)
        _token, outcome = _provision(world, app, device)
        report.check(f"{bundle} provisions its device", outcome, outcome.success)
        apps[bundle] = app
    foot_1 = world.cloud.stored_footprint("dev-01")
    foot_2 = world.cloud.stored_footprint("dev-02")
    report.check(
        "each device is registered under its own vendor",
        (foot_1["bundle_id"], foot_2["bundle_id"]),
        foot_1["bundle_id"] == bundles[0] and foot_2["bundle_id"] == bundles[1],
    )
    report.check_eq(
        "bound tokens match registered devices",
        world.cloud.registry.tokens.bound_count(),
        len(world.cloud.registry.devices),
    )
    # sign with vendor A's key but claim vendor B: the cloud must refuse
    cross = apps[bundles[0]].envelopes.build(
        protocol.ACTION_TOKEN_GET,
        {"region": "EU", "userId": "user-01"},
        world.clock.now,
    )
    cross["bundleId"] = bundles[1]
    cross["sign"] = sign_envelope(cross, derive_signing_key(world.keys[bundles[0]]))
    response = world.cloud.handle_app_request(cross)
    report.check(
        "cross-vendor signature is rejected",
        response.get("result"),
        response.get("success") is False
        and response["result"]["error"] == "BadSignature",
    )


@_scenario("concurrent-provisioning")
def scenario_concurrent_provisioning(report: ScenarioReport, world: World) -> None:
    """Two phones broadcast at once on one network; every listener keeps
    their frames apart by sender."""
    apps = [_app(world, user=user) for user in ("user-01", "user-02")]
    devices = [_device(world, device_id) for device_id in ("bulb-01", "plug-02")]
    sent = [dpl.Credentials(HOME_SSID, world.home_passphrase, app.acquire_token().value)
            for app in apps]
    lengths = [dpl.encode(creds) for creds in sent]
    picks = [i for i, seq in enumerate(lengths) for _ in seq]
    world.rng.shuffle(picks)  # an order-keeping interleaving of the two bursts
    streams = [iter(seq) for seq in lengths]
    for i in picks:
        world.sim.broadcast(apps[i].endpoint, dpl.PROVISION_PORT, next(streams[i]))
    for device in devices:
        device.idle()
        report.check(
            f"{device.device_id} decodes credentials that one of the apps sent",
            device.creds.token if device.creds else None, device.creds in sent,
        )
    for app, creds in zip(apps, sent):
        report.check_eq(
            f"an eavesdropper recovers {app.endpoint}'s token from the air",
            sorted(set(_sniffed_tokens(world, app.endpoint))), [creds.token],
        )
