"""The four closed-loop workloads.

Each workload is one client that waits for every reply.  ``setup()``
builds the inputs and the system under test (the runner calls it several
times and times each call); ``step()`` runs one or more operations,
timing each on its own and checking its output outside the timed part.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import random
import re
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import gen
from provlab import cli, dpl, protocol, scenarios
from provlab.cloud import CloudError
from provlab.device import DevicePhase, IoTDevice
from provlab.netsim import LossModel
from provlab.provisioner import AppConfig, MobileApp, ProvisionerError
from provlab.proxy import ProxyGateway, ProxyPolicy
from provlab.signing import SigningKeySet

BUNDLE_ID = "com.xyz.smart"
# the 11 registered scenarios; pinned so that runs stay comparable
SCENARIO_NAMES = (
    "hijack-surface", "isolation-two-devices", "multi-vendor", "proxy-offline-control",
    "proxy-transparency", "replay-defense", "stovepipe-baseline", "token-case-1",
    "token-case-2-random", "token-case-2-stale", "token-case-3",
)
HOME = scenarios.HOME_SSID


class Tally:
    """Per-operation latencies and check results of one measured phase.

    ``latencies`` are raw; ``scaled`` holds the same latencies scaled to
    the nominal host speed (see hostspeed.py), and ``scale`` is the
    phase's overall factor.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.scale = 1.0
        self.failed = 0
        self.samples: defaultdict = defaultdict(list)  # named extra timings
        self.counts: Counter = Counter()

    def add(self, seconds: float, ok: bool) -> None:
        self.latencies.append(seconds)
        if not ok:
            self.failed += 1

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        """``tiny`` shrinks the inputs for smoke tests."""
        self.seed = seed
        self.workdir = workdir
        # checks made during set-up, outside any measured phase
        self.setup_checks = 0
        self.setup_failures = 0

    def _setup_check(self, ok: bool) -> None:
        self.setup_checks += 1
        if not ok:
            self.setup_failures += 1

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop what the last set-up built, so that a new one starts clean."""

    def step(self, tally: Tally) -> None:
        raise NotImplementedError

    def outcome_ratio(self, tally: Tally) -> float:
        """Share of operations that reached their goal."""
        return 1 - tally.failed / max(tally.attempted, 1)

    def finish(self) -> None:
        """Complete any exact, seed-determined statistics after measuring."""

    def cells(self) -> dict[str, tuple[int, int, int]]:
        """Loss-grid cell -> (genuine senders, recovered, wrong completions)."""
        return {}


def _cli(argv: list[str]) -> tuple[int, str]:
    """``provlab <argv>`` in this process; returns the exit code and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _app_config(keys: SigningKeySet, client_id: str = "bench-client-0001") -> AppConfig:
    return AppConfig(bundle_id=BUNDLE_ID, client_id=client_id, region="EU",
                     user_id="user-01", keys=keys)


def _home_device(world, device_id: str) -> IoTDevice:
    dev = IoTDevice(world.sim, device_id, world.cloud.endpoint, bundle_id=BUNDLE_ID)
    world.sim.join(dev.endpoint, HOME, world.home_passphrase)
    return dev


def _provision(app: MobileApp, world, dev: IoTDevice, rounds: int = dpl.DEFAULT_ROUNDS):
    token = app.acquire_token()
    creds = dpl.Credentials(HOME, world.home_passphrase, token.value)
    return app.provision(creds, rounds=rounds, idle_hook=dev.idle)


def _registered(outcome, dev: IoTDevice) -> bool:
    return (outcome.success and outcome.device_id == dev.device_id
            and dev.phase is DevicePhase.REGISTERED)


# -- provision-crowd ------------------------------------------------------------------


class ProvisionCrowd(Workload):
    name = "provision-crowd"
    why = ("one app provisions fresh devices one at a time over a lossy link to a home "
           "network of 32 registered devices: netsim fan-out, capture growth, poll loop")
    DROP, DUP = 0.1, 0.05

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.crowd = 4 if tiny else 32
        # a world's capture grows with every provision; a fresh world after
        # this many keeps memory bounded while growth still shows
        self.per_world = 3 if tiny else 20
        self.worlds = 0
        self.world = None

    def setup(self) -> None:
        self._new_world()

    def release(self) -> None:
        self.world = self.app = None

    def _new_world(self) -> None:
        self.worlds += 1
        # the crowd was installed earlier over a clean link
        loss = LossModel(drop_prob=0.0, dup_prob=0.0, seed=self.seed)
        world = scenarios.build_world(self.seed * 1000 + self.worlds, loss=loss)
        app = MobileApp(world.sim, _app_config(world.keys[BUNDLE_ID]), world.directory,
                        rng=world.rng, dns_available=False, nonce_source=world.rng)
        world.sim.join(app.endpoint, HOME, world.home_passphrase)
        for i in range(self.crowd):
            dev = _home_device(world, f"crowd-{i:02d}")
            self._setup_check(_registered(_provision(app, world, dev, rounds=1), dev))
        loss.drop_prob, loss.dup_prob = self.DROP, self.DUP
        self.world, self.app, self.in_world = world, app, 0

    def step(self, tally: Tally) -> None:
        if self.in_world >= self.per_world:
            self.release()
            gc.collect()
            self._new_world()
        world = self.world
        self.in_world += 1
        dev = _home_device(world, f"fresh-{self.worlds}-{self.in_world}")
        t0 = perf_counter()
        outcome = _provision(self.app, world, dev)
        dt = perf_counter() - t0
        tally.add(dt, _registered(outcome, dev))
        # keep the fan-out at the crowd size
        world.sim.leave(dev.endpoint, HOME)


# -- capture-decode --------------------------------------------------------------------

_ATTEMPT = re.compile(
    r"attempt \d+: src=(\S+) (?:incomplete|ssid=(\S*) passphrase=(\S*) token=(\S*))$"
)


class CaptureDecode(Workload):
    name = "capture-decode"
    why = ("provlab decode --unmask over seeded session captures across the drop x dup x "
           "rounds loss grid: JSONL parsing and the offline dpl decoder, no broadcast")

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.files_per_cell = 1 if tiny else 6
        self.digest = None
        self.files = []
        self.scored: dict[int, tuple[int, int]] = {}  # file index -> (recovered, wrong)

    def setup(self) -> None:
        self.files = gen.write_capture_set(self.workdir / "captures", self.seed,
                                           self.files_per_cell)
        digest = hashlib.sha256()
        for f in self.files:
            digest.update(f.path.read_bytes())
        # the same seed must give byte-identical captures
        self._setup_check(self.digest in (None, digest.hexdigest()))
        self.digest = digest.hexdigest()
        # every run of 18 consecutive decodes covers each grid cell once, so
        # that where a run stops barely changes its mix of files
        rng = random.Random(self.seed)
        cells = len(gen.GRID)
        self.order = []
        for f in range(self.files_per_cell):
            self.order += [c * self.files_per_cell + f for c in rng.sample(range(cells), cells)]
        self.next = 0

    def decode(self, index: int) -> tuple[float, bool]:
        f = self.files[index]
        t0 = perf_counter()
        code, out = _cli(["decode", str(f.path), "--unmask"])
        dt = perf_counter() - t0
        recovered, wrong = set(), 0
        for line in out.splitlines():
            m = _ATTEMPT.match(line)
            if m is None:
                wrong += 1
                continue
            src, ssid, psk, token = m.groups()
            if ssid is None:
                continue
            if f.truth.get(src) == gen.Creds(ssid, psk, token):
                recovered.add(src)
            else:
                wrong += 1
        self.scored[index] = (len(recovered), wrong)
        return dt, code == cli.EXIT_OK and wrong == 0

    def step(self, tally: Tally) -> None:
        index = self.order[self.next % len(self.order)]
        self.next += 1
        dt, ok = self.decode(index)
        tally.add(dt, ok)
        tally.samples["decode"].append(dt)
        tally.counts["lines"] += self.files[index].lines

    def finish(self) -> None:
        for index in range(len(self.files)):
            if index not in self.scored:
                self.decode(index)

    def cells(self) -> dict[str, tuple[int, int, int]]:
        out = {name: [0, 0, 0] for name in gen.CELLS}
        for index, (recovered, wrong) in self.scored.items():
            f = self.files[index]
            out[f.cell][0] += len(f.truth)
            out[f.cell][1] += recovered
            out[f.cell][2] += wrong
        return {name: tuple(v) for name, v in out.items()}

    def recovered_ratio(self) -> float:
        cells = self.cells().values()
        return sum(c[1] for c in cells) / max(sum(c[0] for c in cells), 1)

    def outcome_ratio(self, tally: Tally) -> float:
        return self.recovered_ratio()


# -- scenario-suite ----------------------------------------------------------------------


class ScenarioSuite(Workload):
    name = "scenario-suite"
    why = ("all 11 registered scenarios through run_scenario on rotating seeds: build_world "
           "and make_bmp, small broadcast fan-out, proxy paths")
    POOL = 4

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.names = SCENARIO_NAMES
        self.pool = [seed * 100 + k for k in range(self.POOL)]
        self.digests: dict[tuple[str, int], str] = {}
        self.next = 0

    def _run(self, name: str, seed: int) -> tuple[float, bool]:
        t0 = perf_counter()
        report = scenarios.run_scenario(name, seed)
        text = report.to_json()
        dt = perf_counter() - t0
        digest = hashlib.sha256(text.encode()).hexdigest()
        # a repeat of the same (name, seed) must give the same report bytes
        same = self.digests.setdefault((name, seed), digest) == digest
        return dt, report.passed and same

    def setup(self) -> None:
        for name in self.names:
            self._setup_check(self._run(name, self.pool[0])[1])

    def step(self, tally: Tally) -> None:
        i = self.next
        self.next += 1
        name = self.names[i % len(self.names)]
        dt, ok = self._run(name, self.pool[(i // len(self.names)) % self.POOL])
        tally.add(dt, ok)
        tally.samples["scenario:" + name].append(dt)


# -- attack-chain -------------------------------------------------------------------------

_KEY_LINE = re.compile(r"\[KEY\] \[0\] str: (.*)$", re.M)


def _tamper(envelope: dict, kind: int, other: dict) -> dict:
    env = dict(envelope)
    if kind == 0:
        sign = env["sign"]
        env["sign"] = sign[:7] + ("0" if sign[7] != "0" else "1") + sign[8:]
    elif kind == 1:
        env["time"] += 1
    elif kind == 2:
        env["postData"] = other["postData"]
    elif kind == 3:
        env["sign"] = hashlib.sha256(repr(sorted(env.items())).encode()).hexdigest()
    elif kind == 4:
        del env["sign"]
    else:
        env["bundleId"] = "com.forged.vendor"
    return env


class AttackChain(Workload):
    name = "attack-chain"
    why = ("key hunt with r-keys over a BMP bundle where one asset hides the key, then "
           "signed controls with the recovered keys: direct, proxy-relayed and tampered")
    RELAY, TAMPER = 0, 1  # positions in each run of ten control requests
    BATCH = 100  # control requests per step
    # a fresh world after this many hunts keeps capture growth, and with
    # it memory, bounded
    HUNTS_PER_WORLD = 4

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.controls_per_hunt = 20 if tiny else 1500
        self.bundle_digest = None
        self.hunts = self.controls = 0
        self.pending = []
        self.rng = random.Random(f"attack:{seed}")

    def _new_world(self) -> None:
        """The home: one device bound directly, one behind the proxy."""
        world = scenarios.build_world(self.seed)
        keys = world.keys[BUNDLE_ID]
        app = MobileApp(world.sim, _app_config(keys), world.directory, rng=world.rng,
                        dns_available=False, nonce_source=world.rng)
        world.sim.join(app.endpoint, HOME, world.home_passphrase)
        self.direct = _home_device(world, "bulb-01")
        self._setup_check(_registered(_provision(app, world, self.direct), self.direct))
        self.proxy = ProxyGateway(
            world.sim, _app_config(keys, "gw-client-0001"), world.directory,
            policy=ProxyPolicy(), rng=world.rng, home_ssid=HOME, dns_available=False,
            nonce_source=world.rng,
        )
        net = self.proxy.allocate_virtual_network("bulb-proxied")
        self.proxied = IoTDevice(world.sim, "bulb-proxied", self.proxy.endpoint,
                                 bundle_id=BUNDLE_ID)
        world.sim.join(self.proxied.endpoint, net.ssid, net.passphrase)
        outcome = self.proxy.provision_isolated("bulb-proxied", idle_hook=self.proxied.idle)
        self._setup_check(_registered(outcome, self.proxied))
        self.world, self.keys = world, keys

    def setup(self) -> None:
        self._new_world()
        self.bundle = gen.write_bundle(self.workdir / "assets", self.seed, self.keys.secret2)
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in self.bundle.paths)).hexdigest()
        # the same seed must give byte-identical assets
        self._setup_check(self.bundle_digest in (None, digest))
        self.bundle_digest = digest
        self.pending = []

    def release(self) -> None:
        self.world = self.direct = self.proxy = self.proxied = self.forger = None

    def step(self, tally: Tally) -> None:
        """One r-keys call, or one batch of control requests."""
        if not self.pending:
            if self.hunts and self.hunts % self.HUNTS_PER_WORLD == 0:
                self.release()
                gc.collect()
                self._new_world()
            self.hunts += 1
            self.found, self.hunt_s, self.forger = "", 0.0, None
            self.pending = [functools.partial(self._scan, i)
                            for i in range(len(self.bundle.paths))]
            batch = min(self.BATCH, self.controls_per_hunt)
            self.pending += [self._controls] * (self.controls_per_hunt // batch)
        self.pending.pop(0)(tally)

    def _scan(self, index: int, tally: Tally) -> None:
        t0 = perf_counter()
        code, out = _cli(["r-keys", self.bundle.seed_str, str(self.bundle.paths[index])])
        dt = perf_counter() - t0
        if index == self.bundle.hit:
            m = _KEY_LINE.search(out)
            self.found = m.group(1) if m else ""
            ok = code == cli.EXIT_OK and self.found == self.bundle.key
        else:
            ok = code == cli.EXIT_MAGIC_MISMATCH
            tally.counts["rkeys_miss"] += 1
        tally.add(dt, ok)
        tally.samples["rkeys"].append(dt)
        self.hunt_s += dt
        if index == len(self.bundle.paths) - 1:
            tally.samples["keyhunt"].append(self.hunt_s)

    def _command(self) -> dict:
        rng = self.rng
        pick = rng.randrange(3)
        power = {"power": rng.choice(("on", "off"))}
        level = {"brightness": rng.randrange(101)}
        return power if pick == 0 else level if pick == 1 else {**power, **level}

    def _controls(self, tally: Tally) -> None:
        world, cloud = self.world, self.world.cloud
        if self.forger is None:
            # the forger signs with whatever the hunt recovered
            keys = SigningKeySet(self.keys.cert_hash, self.keys.secret1, self.found or "?")
            self.forger = MobileApp(world.sim, _app_config(keys), world.directory,
                                    rng=self.rng, dns_available=False,
                                    endpoint_id=f"forger-{self.hunts}", nonce_source=self.rng)
            self.spare = self.forger.envelopes.build(
                protocol.ACTION_DEVICE_CONTROL, {}, world.clock.now)
        build = self.forger.envelopes.build
        for _ in range(min(self.BATCH, self.controls_per_hunt)):
            i = self.controls
            self.controls += 1
            command = self._command()
            if i % 10 == self.RELAY:
                post = {"device_id": "bulb-proxied", "command": command}
                t0 = perf_counter()
                env = build(protocol.ACTION_DEVICE_CONTROL, post, world.clock.now)
                response = self.proxy.relay_app_envelope(env)
                dt = perf_counter() - t0
                ok = response.get("success") is True and all(
                    self.proxied.attributes.get(k) == v for k, v in command.items())
            elif i % 10 == self.TAMPER:
                post = {"device_id": "bulb-01", "command": command}
                before = cloud.registry.fingerprint(), dict(self.direct.attributes)
                t0 = perf_counter()
                env = build(protocol.ACTION_DEVICE_CONTROL, post, world.clock.now)
                response = cloud.handle_app_request(_tamper(env, (i // 10) % 6, self.spare))
                dt = perf_counter() - t0
                ok = response.get("success") is False and before == (
                    cloud.registry.fingerprint(), self.direct.attributes)
            else:
                t0 = perf_counter()
                try:
                    status = self.forger.control_device("bulb-01", command)
                except (CloudError, ProvisionerError):
                    status = {}
                dt = perf_counter() - t0
                ok = all(status.get(k) == v for k, v in command.items())
            tally.add(dt, ok)


WORKLOADS = {w.name: w for w in (ProvisionCrowd, CaptureDecode, ScenarioSuite, AttackChain)}
