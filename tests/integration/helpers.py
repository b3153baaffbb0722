"""Shared helpers for integration tests: pipelines, entries, packets.

The entry sets installed here give every composition (P1–P7) a small but
meaningful FIB/rule set, with per-mode action names where the monolithic
program had to rename a colliding action (e.g. the two ``process``
actions of the IPv4/IPv6 modules become ``process_v4``/``process_v6``).
"""

from __future__ import annotations

from typing import Dict, List

from repro import CompilerOptions, Up4Compiler
from repro.lib.catalog import (
    COMPOSITIONS,
    EXTRA_COMPOSITIONS,
    build_monolithic,
    build_pipeline,
)
from repro.lib.loader import load_module_source
from repro.net.build import PacketBuilder
from repro.net.ethernet import mac
from repro.net.ipv4 import ip4
from repro.net.ipv6 import ip6
from repro.net.srv6 import srh_bytes
from repro.targets.pipeline import PipelineInstance
from repro.targets.runtime_api import RuntimeAPI

MAC_A = "02:00:00:00:00:aa"
MAC_B = "02:00:00:00:00:bb"

# (table, matches, action_micro, action_mono, args)
ENTRY_SETS: Dict[str, List[tuple]] = {
    "P4": [
        ("ipv4_lpm_tbl", [(ip4("10.0.0.0"), 8)], "process", "process_v4", [7]),
        ("ipv4_lpm_tbl", [(ip4("10.1.0.0"), 16)], "process", "process_v4", [8]),
        ("ipv6_lpm_tbl", [(ip6("2001:db8::"), 32)], "process", "process_v6", [9]),
        ("forward_tbl", [7], "forward", "forward", [mac(MAC_A), mac(MAC_B), 2]),
        ("forward_tbl", [8], "forward", "forward", [mac(MAC_A), mac(MAC_B), 3]),
        ("forward_tbl", [9], "forward", "forward", [mac(MAC_A), mac(MAC_B), 4]),
    ],
}
ENTRY_SETS["P1"] = ENTRY_SETS["P4"] + [
    ("acl_tbl", [None, None, 6, 22], "deny", "deny", []),
]
ENTRY_SETS["P2"] = ENTRY_SETS["P4"] + [
    ("mpls_tbl", [100], "pop_v4", "pop_v4", [7]),
    ("mpls_tbl", [101], "pop_v6", "pop_v6", [9]),
    ("mpls_tbl", [200], "swap", "swap", [300, 7]),
    ("mpls_push_tbl", [8], "push", "push", [777]),
]
ENTRY_SETS["P3"] = ENTRY_SETS["P4"] + [
    ("nat_tbl", [ip4("192.168.0.5"), 1234], "snat", "snat", [ip4("8.8.8.8"), 40000]),
]
ENTRY_SETS["P5"] = ENTRY_SETS["P4"] + [
    (
        "npt_tbl",
        [(ip6("fd00::"), 16)],
        "translate_src",
        "translate_src",
        [0x20010DB8_00010000],
    ),
]
ENTRY_SETS["P6"] = ENTRY_SETS["P4"] + [
    ("srv4_tbl", [ip4("10.1.2.3")], "encap", "encap", [ip4("99.0.0.9"), ip4("10.0.0.77")]),
    ("srv4_tbl", [ip4("99.0.0.1")], "decap", "decap", []),
]
ENTRY_SETS["P7"] = ENTRY_SETS["P4"] + [
    ("srv6_end_tbl", [ip6("2001:db8::1"), 1], "use_sid0", "use_sid0", []),
    ("srv6_end_tbl", [ip6("2001:db8::2"), 2], "use_sid1", "use_sid1", []),
]


def make_instance(
    name: str, mode: str, use_table_index: bool = True
) -> PipelineInstance:
    """Build a pipeline instance with the standard entries installed.

    ``use_table_index=False`` forces the reference linear-scan table
    lookup (for differential tests against the indexed fast path).
    """
    composed = build_pipeline(name) if mode == "micro" else build_monolithic(name)
    instance = PipelineInstance(composed, use_table_index=use_table_index)
    api = RuntimeAPI(instance)
    for table, matches, act_micro, act_mono, args in ENTRY_SETS[name]:
        action = act_micro if mode == "micro" else act_mono
        api.add_entry(table, matches, action, args)
    return instance


# ----------------------------------------------------------------------
# Catalog compiles
# ----------------------------------------------------------------------

#: Every catalog composition, P1-P8: program -> module recipe.
RECIPES = {**COMPOSITIONS, **EXTRA_COMPOSITIONS}


def catalog_sources(name: str):
    """(µP4 module sources, monolithic source) of one catalog program."""
    return (
        [(m, load_module_source(m)) for m in RECIPES[name]],
        load_module_source(name.lower(), "monolithic"),
    )


def compile_catalog_program(name, sources, mono_source, tracer=None):
    """Compile one catalog program the way the compile-catalog workload
    does: the µP4 composition to TNA and then to V1Model, and the
    monolithic baseline to TNA.  Returns (micro result, V1Model program,
    mono result); every compiler records into ``tracer`` when given."""
    tna = Up4Compiler(CompilerOptions(target="tna"), tracer=tracer)
    modules = [tna.frontend(text, f"{m}.up4") for m, text in sources]
    micro = tna.compile_modules(modules[0], modules[1:])
    v1model = Up4Compiler(
        CompilerOptions(target="v1model"), tracer=tracer
    ).backend(micro.composed)
    mono_compiler = Up4Compiler(
        CompilerOptions(target="tna", monolithic=True), tracer=tracer
    )
    mono = mono_compiler.compile_modules(
        mono_compiler.frontend(mono_source, f"{name.lower()}.p4")
    )
    return micro, v1model, mono


# ----------------------------------------------------------------------
# Packet corpus
# ----------------------------------------------------------------------


def eth_ipv4(dst: str = "10.0.0.5", ttl: int = 64, proto: int = 6,
             src: str = "192.168.0.1", payload: bytes = b"data") -> object:
    return (
        PacketBuilder()
        .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800)
        .ipv4(src, dst, proto, ttl=ttl)
        .payload(payload)
        .build()
    )


def eth_ipv4_tcp(dst: str = "10.0.0.5", sport: int = 1234, dport: int = 80,
                 src: str = "192.168.0.1") -> object:
    return (
        PacketBuilder()
        .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800)
        .ipv4(src, dst, 6, payload_len=20)
        .tcp(sport, dport)
        .build()
    )


def eth_ipv6(dst: str = "2001:db8::5", hop: int = 64,
             src: str = "fd00::1", payload: bytes = b"data6") -> object:
    return (
        PacketBuilder()
        .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x86DD)
        .ipv6(src, dst, 59, payload_len=len(payload), hop_limit=hop)
        .payload(payload)
        .build()
    )


def eth_mpls_ipv4(label: int = 100, dst: str = "10.0.0.5") -> object:
    return (
        PacketBuilder()
        .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x8847)
        .mpls(label, bos=1)
        .ipv4("192.168.0.1", dst, 6)
        .payload(b"mpls-payload")
        .build()
    )


def eth_ipv4_in_ipv4(outer_dst: str = "99.0.0.1", inner_dst: str = "10.0.0.5") -> object:
    return (
        PacketBuilder()
        .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x0800)
        .ipv4("88.0.0.1", outer_dst, 4)
        .ipv4("192.168.0.1", inner_dst, 6)
        .payload(b"tunnel")
        .build()
    )


def eth_ipv6_srh(dst: str = "2001:db8::1", segments=None, segments_left: int = 1) -> object:
    segments = segments or ["2001:db8::5", dst]
    srh = srh_bytes(segments, 59, segments_left)
    return (
        PacketBuilder()
        .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x86DD)
        .ipv6("fd00::1", dst, 43, payload_len=len(srh))
        .payload(srh)
        .build()
    )


def standard_corpus(name: str) -> List[object]:
    """A packet mix exercising the interesting paths of composition ``name``."""
    corpus = [
        eth_ipv4(),  # routed via 10/8
        eth_ipv4(dst="10.1.2.3"),  # routed via 10.1/16 (more specific)
        eth_ipv4(dst="172.16.0.1"),  # no route -> drop
        eth_ipv4(ttl=0),  # ttl expired -> drop
        eth_ipv4(ttl=1),  # decrements to 0 but still forwarded
        eth_ipv6(),  # routed v6
        eth_ipv6(dst="fe80::1"),  # no route -> drop
        eth_ipv6(hop=0),  # hop limit expired
        PacketBuilder()
        .ethernet("02:00:00:00:00:01", "02:00:00:00:00:02", 0x9999)
        .payload(b"unknown")
        .build(),  # unknown etherType -> drop (no nh)
    ]
    if name == "P1":
        corpus += [
            eth_ipv4_tcp(dport=22),  # denied by ACL
            eth_ipv4_tcp(dport=80),  # permitted
        ]
    if name == "P2":
        corpus += [
            eth_mpls_ipv4(label=100),  # pop to v4
            eth_mpls_ipv4(label=200),  # swap
            eth_mpls_ipv4(label=999),  # unknown label -> drop
            eth_ipv4(dst="10.1.2.3"),  # routed + pushed (nh 8)
        ]
    if name == "P3":
        corpus += [
            eth_ipv4_tcp(src="192.168.0.5", sport=1234),  # SNAT hit
            eth_ipv4_tcp(src="192.168.0.6", sport=999),  # NAT miss
        ]
    if name == "P5":
        corpus += [
            eth_ipv6(src="fd00::42"),  # prefix translated
        ]
    if name == "P6":
        corpus += [
            eth_ipv4(dst="10.1.2.3"),  # encap trigger
            eth_ipv4_in_ipv4(),  # decap trigger
        ]
    if name == "P7":
        corpus += [
            eth_ipv6_srh(),  # active segment endpoint
            eth_ipv6_srh(dst="2001:db8::99", segments_left=0),  # not endpoint
        ]
    return corpus


def run_both(name: str, packets=None):
    """Run the same packets through micro and monolithic pipelines."""
    packets = packets or standard_corpus(name)
    micro = make_instance(name, "micro")
    mono = make_instance(name, "mono")
    results = []
    for pkt in packets:
        results.append(
            (pkt, micro.process(pkt.copy(), 1), mono.process(pkt.copy(), 1))
        )
    return results


def inline_shard_blocks(config, program: str, workers: int, policy: str):
    """Each shard's sub-stream run through the engine's ``_consume`` loop
    in this process, one shard after another, each on a switch with the
    shard's own fault seed: the pool's shards without the pool.  Returns
    the per-shard result blocks in shard order."""
    from repro.net.packet import Packet
    from repro.targets.engine import (
        EngineConfig,
        _consume,
        assign_shard,
        shard_seed,
    )
    from repro.targets.soak import (
        NUM_PORTS,
        build_switch,
        compose_program,
        iter_stream_bytes,
    )

    composed = compose_program(config, program)
    blocks = []
    for shard in range(workers):
        switch = build_switch(
            config, program, composed,
            fault_seed=shard_seed(config.seed, program, shard),
        )
        stream = (
            (index, Packet(data), in_port)
            for index, data, in_port in iter_stream_bytes(
                config, program, NUM_PORTS
            )
            if assign_shard(index, data, workers, policy) == shard
        )
        blocks.append(
            _consume(
                switch, stream, EngineConfig(workers=1, collect_metrics=False),
                shard, batch_lanes=config.batch_lanes,
            )
        )
    return blocks
