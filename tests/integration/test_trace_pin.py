"""Pinned trace digests: generation's byte-identity contract.

The sibling of ``test_stats_pin.py``.  Those pins cover four of the
sixty-one profiles, none of which takes the contended-line or
shared-heap paths of :mod:`repro.workloads.synthetic`; these cover
every profile, so a change to the generator that moves any op, any
random draw or the order of the draws fails here first.

Each pin is the first 16 hex characters of SHA-256 over the canonical
JSON (:func:`repro.sweep.cache.content_key`) of the list of
:func:`~repro.workloads.tracefile.trace_to_dict` documents of
``generate_workload(profile, CORES, LENGTH, seed=SEED)`` followed by
``generate_warmup`` with the same arguments.  A change meant to keep
the traces keeps every pin; a change to the generated workload updates
them in the same change and says so in CHANGES.md.
"""

import pytest

from repro.sweep.cache import content_key
from repro.workloads import PROFILES, generate_warmup, generate_workload
from repro.workloads.tracefile import trace_to_dict

CORES = 2
LENGTH = 300
SEED = 11

#: profile name -> digest of its workload and warm-up traces.
TRACE_PINS = {
    "500.perlbench_1": "d9f303eeb237d44c",
    "500.perlbench_2": "ed10d543cab05e69",
    "500.perlbench_3": "4394af868a7c6e2b",
    "502.gcc_1": "5f5c41ea78980cc9",
    "502.gcc_2": "63825ea184fd2732",
    "502.gcc_3": "39ddb50d4bf73801",
    "502.gcc_4": "1eceb8df86955a9e",
    "502.gcc_5": "1eceb8df86955a9e",
    "503.bwaves_1": "85c1723209bd8e9e",
    "503.bwaves_2": "85c1723209bd8e9e",
    "503.bwaves_3": "c1f807dc42d23aab",
    "503.bwaves_4": "9416490ab8a53e05",
    "505.mcf": "4353a7f3d5b49880",
    "507.cactuBSSN": "c030027260eed158",
    "508.namd": "e92c6068d7f8071e",
    "510.parest": "11e820fd5c6c642b",
    "511.povray": "6e5de68000c0622f",
    "519.lbm": "31f3d39cda46a036",
    "520.omnetpp": "fece3d831d1aa782",
    "521.wrf": "7b1313082c7cb2a7",
    "523.xalancbmk": "26c59fc7f966141d",
    "525.x264_1": "7dc37cc8e266b151",
    "525.x264_2": "bf6e00d1f4025f34",
    "525.x264_3": "b5c1770aa976d0dc",
    "526.blender": "ea573a0dee9c7714",
    "527.cam4": "f36b9a88d8fe7964",
    "531.deepsjeng": "39d7829284d42634",
    "538.imagick": "b9562a151615efa3",
    "541.leela": "ccaa30afa7ea5570",
    "544.nab": "d8aa0e10aebeb704",
    "548.exchange2": "0ad04bbb767220ca",
    "549.fotonik3d": "e0e5994ace74e027",
    "554.roms": "c47e15a42a06b667",
    "557.xz_1": "bfa36ecc79856f80",
    "557.xz_2": "08402e4d38d0b647",
    "557.xz_3": "10e588382246493f",
    "barnes": "f37aa81f0ab5b376",
    "blackscholes": "25b4680ca751b996",
    "bodytrack": "bed57c3caa8fa8b1",
    "canneal": "723ab0f82e4ab10e",
    "cholesky": "8e698f32a0102108",
    "dedup": "a1327a9783707687",
    "ferret": "0fc1d3159d84f36c",
    "fft": "a86ef7007c6769c3",
    "fluidanimate": "014fbccda859d464",
    "fmm": "e3e273931aafea56",
    "freqmine": "111f4036b6b11790",
    "lu_cb": "a3b9da77b763064e",
    "lu_ncb": "52f4e1964397364d",
    "ocean_cp": "062518b1b9d36402",
    "ocean_ncp": "cbbca53a9667834a",
    "radiosity": "b8dae8125a1e281f",
    "radix": "e4ca65cab2e28fa4",
    "raytrace": "a28ed1ce5eabb788",
    "streamcluster": "4c9db7c713540cca",
    "swaptions": "f724d5aa3b6e09d5",
    "vips": "656d436426a1c3e3",
    "volrend": "f266eb2397865bd8",
    "water_nsquared": "93aae894034fd2c0",
    "water_spatial": "9c4c362fae81c46f",
    "x264": "c8b4530de091da32",
}


def test_every_profile_is_pinned():
    assert sorted(TRACE_PINS) == sorted(PROFILES)


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_generated_traces_are_pinned(name):
    profile = PROFILES[name]
    traces = (generate_workload(profile, CORES, LENGTH, seed=SEED)
              + generate_warmup(profile, CORES, LENGTH, seed=SEED))
    digest = content_key([trace_to_dict(trace) for trace in traces])
    assert digest[:16] == TRACE_PINS[name]
