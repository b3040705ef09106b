"""The 19 XDP benchmark programs (paper Table 1).

Sources follow the real programs they stand in for: kernel samples
(xdp1, xdp2, xdp_router_ipv4, xdp_fwd, ...), Meta's Katran-style
xdp-balancer and pktcntr, hXDP's suite (ddos mitigator, firewall, ...)
and Cilium-style datapath programs.  All are written in the package's
mini-C and parse real packet layouts (Ethernet/IPv4/TCP/UDP offsets).

Simplification: multi-byte packet fields are read in little-endian host
order and the packet generator writes them the same way (network byte
order round-trips through ``bswap`` in real code; elided here — it does
not affect instruction mix materially).

``FORWARDING`` lists the four programs that can forward traffic; these
are the ones Table 3 measures for throughput/latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..frontend import compile_source
from ..isa import BpfProgram, ProgramType


@dataclass(frozen=True)
class XdpWorkload:
    name: str
    source: str
    entry: str
    origin: str  # kernel / meta / hxdp / cilium


# --- shared source fragments -------------------------------------------------

_PARSE_ETH_IP = """
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 34 > end) { return XDP_PASS; }
    u16 proto = *(u16*)(data + 12);
    if (proto != 0x0800) { return XDP_PASS; }
    u8 ipproto = *(u8*)(data + 23);
    u32 saddr = *(u32*)(data + 26);
    u32 daddr = *(u32*)(data + 30);
"""


def _jhash_rounds(a: str, b: str, c: str, rounds: int = 3) -> str:
    """Inline jhash-style mixing (always inlined in real XDP code too)."""
    body = []
    for _ in range(rounds):
        body.append(f"""
    {a} -= {c}; {a} ^= ({c} << 4) | ({c} >> 28); {c} += {b};
    {b} -= {a}; {b} ^= ({a} << 6) | ({a} >> 26); {a} += {c};
    {c} -= {b}; {c} ^= ({b} << 8) | ({b} >> 24); {b} += {a};
""")
    return "".join(body)


# --- the 19 programs -----------------------------------------------------------

XDP1 = XdpWorkload(
    name="xdp1",
    origin="kernel",
    entry="xdp_prog1",
    source="""
map percpu_array rxcnt(u32, u64, 256);

u32 xdp_prog1(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 14 > end) { return XDP_DROP; }
    u16 proto = *(u16*)(data + 12);
    u32 key = proto & 0xff;
    u64* value = map_lookup(rxcnt, &key);
    if (value != 0) {
        *value += 1;
    }
    return XDP_DROP;
}
""",
)

XDP2 = XdpWorkload(
    name="xdp2",
    origin="kernel",
    entry="xdp_prog2",
    source="""
map percpu_array rxcnt(u32, u64, 256);

u32 xdp_prog2(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 14 > end) { return XDP_DROP; }
    u16 proto = *(u16*)(data + 12);
    u32 key = proto & 0xff;
    u64* value = map_lookup(rxcnt, &key);
    if (value != 0) {
        *value += 1;
    }
    // swap source and destination MAC addresses (6 bytes each)
    u32 dst_lo = *(u32*)(data + 0);
    u16 dst_hi = *(u16*)(data + 4);
    u32 src_lo = *(u32*)(data + 6);
    u16 src_hi = *(u16*)(data + 10);
    *(u32*)(data + 0) = src_lo;
    *(u16*)(data + 4) = src_hi;
    *(u32*)(data + 6) = dst_lo;
    *(u16*)(data + 10) = dst_hi;
    return XDP_TX;
}
""",
)

XDP_ROUTER_IPV4 = XdpWorkload(
    name="xdp_router_ipv4",
    origin="kernel",
    entry="xdp_router_ipv4",
    source="""
map array route_table(u32, u32, 256);
map percpu_array stats(u32, u64, 8);

u32 xdp_router_ipv4(u8* ctx) {
""" + _PARSE_ETH_IP + """
    u8 ttl = *(u8*)(data + 22);
    if (ttl <= 1) { return XDP_PASS; }
    u32 prefix = daddr >> 24;
    u32* nh = map_lookup(route_table, &prefix);
    if (nh == 0) {
        u32 miss_key = 1;
        u64* miss = map_lookup(stats, &miss_key);
        if (miss != 0) { *miss += 1; }
        return XDP_PASS;
    }
    u32 ifindex = *nh;
    if (ifindex == 0) { return XDP_PASS; }
    *(u8*)(data + 22) = ttl - 1;
    u32 hit_key = 0;
    u64* hit = map_lookup(stats, &hit_key);
    if (hit != 0) { *hit += 1; }
    return XDP_TX;
}
""",
)

XDP_FWD = XdpWorkload(
    name="xdp_fwd",
    origin="kernel",
    entry="xdp_fwd",
    source="""
map percpu_array fwd_stats(u32, u64, 4);

u32 xdp_fwd(u8* ctx) {
""" + _PARSE_ETH_IP + """
    u8 ttl = *(u8*)(data + 22);
    if (ttl <= 1) { return XDP_PASS; }
    // build fib_lookup params on the stack (64-byte struct, zeroed
    // header-by-header like real code initializing struct bpf_fib_lookup)
    u8 params[64];
    *(u32*)(params + 0) = 0;        // family AF_INET
    *(u32*)(params + 24) = 0;       // tot_len/tbid words
    *(u32*)(params + 28) = 0;
    *(u32*)(params + 32) = 0;
    *(u32*)(params + 36) = 0;
    *(u32*)(params + 4) = (u32)ipproto;
    *(u32*)(params + 8) = saddr;
    *(u32*)(params + 12) = daddr;
    *(u32*)(params + 16) = ctx->ingress_ifindex;
    u64 rc = fib_lookup(ctx, params, 64, 0);
    if (rc != 0) { return XDP_PASS; }
    u32 oif = *(u32*)(params + 56);
    if (oif == 0) { return XDP_PASS; }
    *(u8*)(data + 22) = ttl - 1;
    u32 key = 0;
    u64* count = map_lookup(fwd_stats, &key);
    if (count != 0) { *count += 1; }
    return redirect(oif, 0);
}
""",
)

# Katran-style load balancer: the largest program (paper: 1771 insns).
_BALANCER_PARSE = """
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 14 > end) { return XDP_DROP; }
    u16 proto = *(u16*)(data + 12);
    u64 l3 = data + 14;
    if (proto == 0x8100) {
        if (data + 18 > end) { return XDP_DROP; }
        proto = *(u16*)(data + 16);
        l3 = data + 18;
    }
    if (proto != 0x0800) { return XDP_PASS; }
    if (l3 + 20 > end) { return XDP_DROP; }
    u8 verihl = *(u8*)(l3 + 0);
    u8 ihl = verihl & 0x0f;
    if (ihl < 5) { return XDP_DROP; }
    u64 l4 = l3 + (u64)ihl * 4;
    u8 ipproto = *(u8*)(l3 + 9);
    u32 saddr = *(u32*)(l3 + 12);
    u32 daddr = *(u32*)(l3 + 16);
    u16 tot_len = *(u16*)(l3 + 2);
    u8 ttl2 = *(u8*)(l3 + 8);
    if (ttl2 <= 1) { return XDP_DROP; }
    if (l4 + 8 > end) { return XDP_DROP; }
    u16 sport = *(u16*)(l4 + 0);
    u16 dport = *(u16*)(l4 + 2);
"""

XDP_BALANCER = XdpWorkload(
    name="xdp-balancer",
    origin="meta",
    entry="balancer_ingress",
    source="""
map hash vip_map(u64, u32, 512);
map lru_hash conntrack(u64, u32, 65536);
map array ring(u32, u32, 4096);
map array reals(u32, u64, 256);
map percpu_array lb_stats(u32, u64, 32);

u32 balancer_ingress(u8* ctx) {
""" + _BALANCER_PARSE + """
    // vip lookup key: daddr:dport:proto
    u64 vip_key = ((u64)daddr << 32) | ((u64)dport << 8) | (u64)ipproto;
    u32* vip = map_lookup(vip_map, &vip_key);
    if (vip == 0) {
        u32 nk = 2;
        u64* nv = map_lookup(lb_stats, &nk);
        if (nv != 0) { *nv += 1; }
        return XDP_PASS;
    }
    u32 vip_num = *vip;

    // connection table lookup: saddr:sport
    u64 ct_key = ((u64)saddr << 16) | (u64)sport;
    u32 real_idx = 0;
    u32* existing = map_lookup(conntrack, &ct_key);
    if (existing != 0) {
        real_idx = *existing;
    } else {
        // pick backend via a jhash of the 5-tuple
        u32 a = saddr;
        u32 b = daddr;
        u32 c = ((u32)sport << 16) | (u32)dport;
        a += 0xdeadbef;
        b += vip_num;
        c += (u32)ipproto;
""" + _jhash_rounds("a", "b", "c", rounds=4) + """
        u32 slot = c & 0xfff;
        u32* ring_entry = map_lookup(ring, &slot);
        if (ring_entry == 0) { return XDP_DROP; }
        real_idx = *ring_entry;
        u32 cval = real_idx;
        map_update(conntrack, &ct_key, &cval, BPF_ANY);
        u32 newk = 3;
        u64* newv = map_lookup(lb_stats, &newk);
        if (newv != 0) { *newv += 1; }
    }

    u32 rk = real_idx & 0xff;
    u64* real = map_lookup(reals, &rk);
    if (real == 0) { return XDP_DROP; }
    u64 real_info = *real;
    u32 real_addr = (u32)real_info;
    if (real_addr == 0) { return XDP_DROP; }

    // stats: per-vip packets and bytes
    u32 sk = vip_num & 0x1f;
    u64* pkts = map_lookup(lb_stats, &sk);
    if (pkts != 0) { *pkts += 1; }

    // checksum delta for the daddr rewrite
    u8 oldhdr[8];
    u8 newhdr[8];
    *(u32*)(oldhdr + 0) = daddr;
    *(u32*)(oldhdr + 4) = (u32)dport;
    *(u32*)(newhdr + 0) = real_addr;
    *(u32*)(newhdr + 4) = (u32)(real_info >> 32) & 0xffff;
    u64 csum = csum_diff(oldhdr, 8, newhdr, 8, 0);

    // rewrite destination: DNAT to the chosen real server
    *(u32*)(l3 + 16) = real_addr;
    *(u16*)(l4 + 2) = (u16)(real_info >> 32);
    *(u8*)(l3 + 8) = ttl2 - 1;
    *(u16*)(l3 + 10) = (u16)csum;

    // second-chance hashing for icmp-sized anomalies
    if (tot_len < 28) {
        u32 a2 = saddr ^ 0x5bd1e995;
        u32 b2 = daddr ^ (u32)tot_len;
        u32 c2 = 0x9e3779b9;
""" + _jhash_rounds("a2", "b2", "c2", rounds=2) + """
        if ((c2 & 0xff) == 0) {
            u32 ak = 4;
            u64* av = map_lookup(lb_stats, &ak);
            if (av != 0) { *av += 1; }
        }
    }
    return XDP_TX;
}
""",
)

XDP_TX_IPTUNNEL = XdpWorkload(
    name="xdp_tx_iptunnel",
    origin="kernel",
    entry="xdp_tx_iptunnel",
    source="""
map hash tunnel_map(u64, u64, 256);
map percpu_array tunnel_stats(u32, u64, 4);

u32 xdp_tx_iptunnel(u8* ctx) {
""" + _PARSE_ETH_IP + """
    if (ipproto != 6 && ipproto != 17) { return XDP_PASS; }
    if (data + 38 > end) { return XDP_PASS; }
    u16 dport = *(u16*)(data + 36);
    u64 key = ((u64)daddr << 16) | (u64)dport;
    u64* tnl = map_lookup(tunnel_map, &key);
    if (tnl == 0) { return XDP_PASS; }
    u64 outer = *tnl;
    if (xdp_adjust_head(ctx, 0 - 20) != 0) { return XDP_DROP; }
    u64 d2 = ctx->data;
    u64 e2 = ctx->data_end;
    if (d2 + 54 > e2) { return XDP_DROP; }
    // write the outer IPv4 header
    *(u8*)(d2 + 14) = 0x45;
    *(u8*)(d2 + 15) = 0;
    *(u16*)(d2 + 16) = 0;
    *(u16*)(d2 + 18) = 1;
    *(u16*)(d2 + 20) = 0;
    *(u8*)(d2 + 22) = 64;
    *(u8*)(d2 + 23) = 4;
    *(u32*)(d2 + 26) = (u32)(outer >> 32);
    *(u32*)(d2 + 30) = (u32)outer;
    u32 sk = 0;
    u64* count = map_lookup(tunnel_stats, &sk);
    if (count != 0) { *count += 1; }
    return XDP_TX;
}
""",
)

XDP_ADJUST_TAIL = XdpWorkload(
    name="xdp_adjust_tail",
    origin="kernel",
    entry="xdp_adjust_tail",
    source="""
map percpu_array tail_stats(u32, u64, 2);

u32 xdp_adjust_tail(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    u64 length = end - data;
    if (length <= 578) { return XDP_PASS; }
    if (data + 34 > end) { return XDP_PASS; }
    u16 proto = *(u16*)(data + 12);
    if (proto != 0x0800) { return XDP_PASS; }
    u32 key = 0;
    u64* count = map_lookup(tail_stats, &key);
    if (count != 0) { *count += 1; }
    return XDP_DROP;
}
""",
)

XDP_RXQ_INFO = XdpWorkload(
    name="xdp_rxq_info",
    origin="kernel",
    entry="xdp_rxq_info",
    source="""
map percpu_array rxq_stats(u32, u64, 64);

u32 xdp_rxq_info(u8* ctx) {
    u32 queue = ctx->rx_queue_index;
    u32 key = queue & 0x3f;
    u64* count = map_lookup(rxq_stats, &key);
    if (count != 0) { *count += 1; }
    return XDP_PASS;
}
""",
)

XDP_REDIRECT_MAP = XdpWorkload(
    name="xdp_redirect_map",
    origin="kernel",
    entry="xdp_redirect_map",
    source="""
map array tx_port(u32, u32, 64);
map percpu_array redirect_stats(u32, u64, 2);

u32 xdp_redirect_map(u8* ctx) {
    u32 inif = ctx->ingress_ifindex;
    u32 key = inif & 0x3f;
    u32* port = map_lookup(tx_port, &key);
    if (port == 0) { return XDP_PASS; }
    u32 sk = 0;
    u64* count = map_lookup(redirect_stats, &sk);
    if (count != 0) { *count += 1; }
    return redirect_map(*port, 0);
}
""",
)

XDP_DDOS_MITIGATOR = XdpWorkload(
    name="xdp_ddos_mitigator",
    origin="hxdp",
    entry="xdp_ddos",
    source="""
map hash blacklist(u32, u64, 4096);
map percpu_array ddos_stats(u32, u64, 4);

u32 xdp_ddos(u8* ctx) {
""" + _PARSE_ETH_IP + """
    u64* hits = map_lookup(blacklist, &saddr);
    if (hits != 0) {
        *hits += 1;
        u32 dk = 0;
        u64* dropped = map_lookup(ddos_stats, &dk);
        if (dropped != 0) { *dropped += 1; }
        return XDP_DROP;
    }
    u32 pk = 1;
    u64* passed = map_lookup(ddos_stats, &pk);
    if (passed != 0) { *passed += 1; }
    return XDP_PASS;
}
""",
)

XDP_SIMPLE_FIREWALL = XdpWorkload(
    name="xdp_simple_firewall",
    origin="hxdp",
    entry="xdp_firewall",
    source="""
map hash fw_rules(u64, u32, 8192);
map lru_hash fw_sessions(u64, u32, 16384);
map percpu_array fw_stats(u32, u64, 8);

u32 xdp_firewall(u8* ctx) {
""" + _PARSE_ETH_IP + """
    if (ipproto != 6 && ipproto != 17) { return XDP_PASS; }
    if (data + 38 > end) { return XDP_DROP; }
    u16 sport = *(u16*)(data + 34);
    u16 dport = *(u16*)(data + 36);
    u64 session = ((u64)saddr << 32) | ((u64)sport << 16) | (u64)dport;
    u32* state = map_lookup(fw_sessions, &session);
    if (state != 0) {
        if (*state == 1) { return XDP_PASS; }
        return XDP_DROP;
    }
    u64 rule_key = ((u64)dport << 8) | (u64)ipproto;
    u32* verdict = map_lookup(fw_rules, &rule_key);
    u32 allowed = 0;
    if (verdict != 0) { allowed = *verdict; }
    u32 sval = allowed;
    map_update(fw_sessions, &session, &sval, BPF_ANY);
    u32 key = allowed & 1;
    u64* count = map_lookup(fw_stats, &key);
    if (count != 0) { *count += 1; }
    if (allowed == 1) { return XDP_PASS; }
    return XDP_DROP;
}
""",
)

XDP_MAP_ACCESS = XdpWorkload(
    name="xdp_map_access",
    origin="hxdp",
    entry="xdp_map_access",
    source="""
map percpu_array access_cnt(u32, u64, 1);

u32 xdp_map_access(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 14 > end) { return XDP_DROP; }
    u32 key = 0;
    u64* value = map_lookup(access_cnt, &key);
    if (value != 0) { *value += 1; }
    return XDP_PASS;
}
""",
)

XDP_ETHER = XdpWorkload(
    name="xdp_ether",
    origin="hxdp",
    entry="xdp_ether",
    source="""
u32 xdp_ether(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 14 > end) { return XDP_DROP; }
    u32 dst_lo = *(u32*)(data + 0);
    u16 dst_hi = *(u16*)(data + 4);
    u32 src_lo = *(u32*)(data + 6);
    u16 src_hi = *(u16*)(data + 10);
    *(u32*)(data + 0) = src_lo;
    *(u16*)(data + 4) = src_hi;
    *(u32*)(data + 6) = dst_lo;
    *(u16*)(data + 10) = dst_hi;
    return XDP_TX;
}
""",
)

CIL_LB4 = XdpWorkload(
    name="cil_lb4",
    origin="cilium",
    entry="cil_lb4",
    source="""
map hash lb4_services(u64, u64, 1024);
map array lb4_backends(u32, u64, 1024);
map percpu_array lb4_stats(u32, u64, 16);

u32 cil_lb4(u8* ctx) {
""" + _PARSE_ETH_IP + """
    if (ipproto != 6) { return XDP_PASS; }
    if (data + 38 > end) { return XDP_DROP; }
    u16 sport = *(u16*)(data + 34);
    u16 dport = *(u16*)(data + 36);
    u64 svc_key = ((u64)daddr << 16) | (u64)dport;
    u64* svc = map_lookup(lb4_services, &svc_key);
    if (svc == 0) { return XDP_PASS; }
    u64 svc_info = *svc;
    u32 count = (u32)(svc_info >> 32);
    if (count == 0) { return XDP_DROP; }
    u32 a = saddr;
    u32 b = ((u32)sport << 16) | (u32)dport;
    u32 c = 0x9e3779b9;
""" + _jhash_rounds("a", "b", "c", rounds=2) + """
    u32 backend_key = ((u32)svc_info + (c % count)) & 0x3ff;
    u64* backend = map_lookup(lb4_backends, &backend_key);
    if (backend == 0) { return XDP_DROP; }
    u64 be = *backend;
    u32 be_addr = (u32)be;
    u16 be_port = (u16)(be >> 32);
    *(u32*)(data + 30) = be_addr;
    *(u16*)(data + 36) = be_port;
    u32 sk = 0;
    u64* fwd = map_lookup(lb4_stats, &sk);
    if (fwd != 0) { *fwd += 1; }
    return XDP_TX;
}
""",
)

CIL_FROM_CONTAINER = XdpWorkload(
    name="cil_from_container",
    origin="cilium",
    entry="cil_from_container",
    source="""
map hash identity_map(u32, u32, 8192);
map hash policy_map(u64, u32, 16384);
map percpu_array policy_stats(u32, u64, 4);

u32 cil_from_container(u8* ctx) {
""" + _PARSE_ETH_IP + """
    u32* identity = map_lookup(identity_map, &saddr);
    u32 src_id = 0;
    if (identity != 0) { src_id = *identity; }
    u16 dport = 0;
    if (ipproto == 6 || ipproto == 17) {
        if (data + 38 > end) { return XDP_DROP; }
        dport = *(u16*)(data + 36);
    }
    u64 policy_key = ((u64)src_id << 32) | ((u64)ipproto << 16) | (u64)dport;
    u32* allow = map_lookup(policy_map, &policy_key);
    if (allow != 0 && *allow == 1) {
        u32 ak = 0;
        u64* acount = map_lookup(policy_stats, &ak);
        if (acount != 0) { *acount += 1; }
        return XDP_PASS;
    }
    u32 dk = 1;
    u64* dcount = map_lookup(policy_stats, &dk);
    if (dcount != 0) { *dcount += 1; }
    return XDP_DROP;
}
""",
)

XDP_PKTCNTR = XdpWorkload(
    name="xdp_pktcntr",
    origin="meta",
    entry="pktcntr",
    source="""
map percpu_array cntr_stats(u32, u64, 32);
map percpu_array sample_events(u32, u64, 1);

u32 pktcntr(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 14 > end) { return XDP_PASS; }
    u16 proto = *(u16*)(data + 12);
    u32 key = 0;
    if (proto == 0x0800) { key = 1; }
    if (proto == 0x86dd) { key = 2; }
    u64* count = map_lookup(cntr_stats, &key);
    if (count != 0) { *count += 1; }
    u32 rnd = get_prandom_u32();
    if ((rnd & 0x3ff) == 0) {
        u8 event[16];
        *(u64*)(event + 0) = end - data;
        *(u64*)(event + 8) = (u64)proto;
        perf_event_output(ctx, sample_events, 0, event, 16);
    }
    return XDP_PASS;
}
""",
)

XDP_DROPCNT = XdpWorkload(
    name="xdp_dropcnt",
    origin="meta",
    entry="dropcnt",
    source="""
map percpu_array drop_reasons(u32, u64, 8);

u32 dropcnt(u8* ctx) {
    u64 data = ctx->data;
    u64 end = ctx->data_end;
    if (data + 14 > end) {
        u32 rk = 0;
        u64* runt = map_lookup(drop_reasons, &rk);
        if (runt != 0) { *runt += 1; }
        return XDP_DROP;
    }
    u16 proto = *(u16*)(data + 12);
    if (proto != 0x0800 && proto != 0x86dd) {
        u32 uk = 1;
        u64* unknown = map_lookup(drop_reasons, &uk);
        if (unknown != 0) { *unknown += 1; }
        return XDP_DROP;
    }
    if (data + 34 > end) {
        u32 tk = 2;
        u64* trunc = map_lookup(drop_reasons, &tk);
        if (trunc != 0) { *trunc += 1; }
        return XDP_DROP;
    }
    return XDP_PASS;
}
""",
)

XDP_PARSE_DNS = XdpWorkload(
    name="xdp_parse_dns",
    origin="cilium",
    entry="parse_dns",
    source="""
map hash dns_blocklist(u64, u32, 4096);
map percpu_array dns_stats(u32, u64, 4);

u32 parse_dns(u8* ctx) {
""" + _PARSE_ETH_IP + """
    if (ipproto != 17) { return XDP_PASS; }
    if (data + 42 > end) { return XDP_PASS; }
    u16 dport = *(u16*)(data + 36);
    if (dport != 53) { return XDP_PASS; }
    // hash the qname labels (bounded walk over 24 bytes)
    u64 qname = data + 54;
    u64 hash = 0xcbf29ce484222325;
    for (u64 i = 0; i < 24; i += 1) {
        if (qname + i + 1 > end) { break; }
        u8 byte = *(u8*)(qname + i);
        if (byte == 0) { break; }
        hash = (hash ^ (u64)byte) * 0x100000001b3;
    }
    u32* blocked = map_lookup(dns_blocklist, &hash);
    if (blocked != 0) {
        u32 bk = 0;
        u64* bcount = map_lookup(dns_stats, &bk);
        if (bcount != 0) { *bcount += 1; }
        return XDP_DROP;
    }
    return XDP_PASS;
}
""",
)

XDP_RATE_LIMITER = XdpWorkload(
    name="xdp_rate_limiter",
    origin="hxdp",
    entry="rate_limiter",
    source="""
map lru_hash buckets(u32, u64, 16384);
map percpu_array rl_stats(u32, u64, 4);

u32 rate_limiter(u8* ctx) {
""" + _PARSE_ETH_IP + """
    u64 now = ktime_get_ns();
    u64* bucket = map_lookup(buckets, &saddr);
    if (bucket == 0) {
        u64 fresh = (now & 0xffffffffffff0000) | 100;
        map_update(buckets, &saddr, &fresh, BPF_ANY);
        return XDP_PASS;
    }
    u64 state = *bucket;
    u64 tokens = state & 0xffff;
    u64 last = state >> 16;
    u64 elapsed = (now >> 16) - last;
    tokens = tokens + elapsed / 1000;
    if (tokens > 100) { tokens = 100; }
    if (tokens == 0) {
        u32 dk = 0;
        u64* dropped = map_lookup(rl_stats, &dk);
        if (dropped != 0) { *dropped += 1; }
        return XDP_DROP;
    }
    *bucket = ((now >> 16) << 16) | (tokens - 1);
    return XDP_PASS;
}
""",
)

XDP_QUIC_LB = XdpWorkload(
    name="xdp_quic_lb",
    origin="meta",
    entry="quic_lb",
    source="""
map array quic_workers(u32, u32, 128);
map percpu_array quic_stats(u32, u64, 4);

u32 quic_lb(u8* ctx) {
""" + _PARSE_ETH_IP + """
    if (ipproto != 17) { return XDP_PASS; }
    if (data + 50 > end) { return XDP_PASS; }
    u16 dport = *(u16*)(data + 36);
    if (dport != 443) { return XDP_PASS; }
    // connection id routing: the server id lives in the QUIC CID
    u8 first = *(u8*)(data + 42);
    u32 worker = 0;
    if ((first & 0x80) != 0) {
        worker = (u32)*(u8*)(data + 43) & 0x7f;
    } else {
        u32 cid = *(u32*)(data + 43);
        worker = cid & 0x7f;
    }
    u32* target = map_lookup(quic_workers, &worker);
    if (target == 0) { return XDP_PASS; }
    u32 sk = 0;
    u64* count = map_lookup(quic_stats, &sk);
    if (count != 0) { *count += 1; }
    return XDP_TX;
}
""",
)

XDP_L4_CSUM = XdpWorkload(
    name="xdp_l4_csum",
    origin="hxdp",
    entry="l4_csum",
    source="""
map percpu_array csum_stats(u32, u64, 2);

u32 l4_csum(u8* ctx) {
""" + _PARSE_ETH_IP + """
    if (ipproto != 17) { return XDP_PASS; }
    if (data + 42 > end) { return XDP_PASS; }
    // incremental checksum over the first 8 payload bytes
    u64 sum = 0;
    sum += (u64)*(u16*)(data + 34);
    sum += (u64)*(u16*)(data + 36);
    sum += (u64)*(u16*)(data + 38);
    sum += (u64)*(u16*)(data + 40);
    sum = (sum & 0xffff) + (sum >> 16);
    sum = (sum & 0xffff) + (sum >> 16);
    *(u16*)(data + 40) = (u16)(~sum & 0xffff);
    u32 key = 0;
    u64* count = map_lookup(csum_stats, &key);
    if (count != 0) { *count += 1; }
    return XDP_TX;
}
""",
)

ALL_XDP: List[XdpWorkload] = [
    XDP1,
    XDP2,
    XDP_ROUTER_IPV4,
    XDP_FWD,
    XDP_BALANCER,
    XDP_TX_IPTUNNEL,
    XDP_ADJUST_TAIL,
    XDP_RXQ_INFO,
    XDP_REDIRECT_MAP,
    XDP_DDOS_MITIGATOR,
    XDP_SIMPLE_FIREWALL,
    XDP_MAP_ACCESS,
    XDP_ETHER,
    CIL_LB4,
    CIL_FROM_CONTAINER,
    XDP_PKTCNTR,
    XDP_DROPCNT,
    XDP_PARSE_DNS,
    XDP_RATE_LIMITER,
    XDP_QUIC_LB,
    XDP_L4_CSUM,
][:19]

BY_NAME: Dict[str, XdpWorkload] = {w.name: w for w in ALL_XDP}

#: the four programs that forward traffic (paper Table 3)
FORWARDING = ("xdp2", "xdp_router_ipv4", "xdp_fwd", "xdp-balancer")

XDP_CTX_SIZE = 24


def compile_workload(workload: XdpWorkload,
                     optimize: bool = False) -> BpfProgram:
    """Compile one XDP workload, optionally through Merlin."""
    module = compile_source(workload.source, workload.name)
    func = module.get(workload.entry)
    if optimize:
        from ..core import MerlinPipeline

        program, _ = MerlinPipeline().compile(func, module,
                                              prog_type=ProgramType.XDP,
                                              ctx_size=XDP_CTX_SIZE)
        return program
    from ..codegen import compile_function

    return compile_function(func, module, prog_type=ProgramType.XDP,
                            ctx_size=XDP_CTX_SIZE)
