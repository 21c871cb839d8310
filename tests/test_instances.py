"""Generators and the instance file format."""

from __future__ import annotations

import pytest

from partition_ais import (
    GStarParams,
    Instance,
    InstanceFormatError,
    ParameterError,
    gen_g_star,
    gen_uniform,
    read_instance,
    write_instance,
)
from partition_ais.checks import IDENTITY_SETTINGS


def test_gstar_n8_exact_values():
    inst = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))
    assert inst.p == (39, 39, 11, 11, 11, 11, 11, 11)
    assert inst.W == 144
    assert inst.meta.family == "gstar"
    assert inst.meta.s == 2
    assert inst.meta.eps == (1, 4)
    assert inst.meta.scale == 1


def test_gstar_n12_exact_values():
    inst = gen_g_star(GStarParams(n=12, s=2, eps=(1, 4)))
    assert inst.p == (65, 65) + (11,) * 10
    assert inst.W == 240


def test_gstar_scale_multiplies_all_times():
    base = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))
    scaled = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4), scale=3))
    assert scaled.p == tuple(3 * t for t in base.p)
    assert scaled.W == 3 * base.W


def test_gstar_eps_is_reduced():
    a = gen_g_star(GStarParams(n=8, s=2, eps=(2, 8)))
    b = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))
    assert a == b
    assert a.meta.eps == (1, 4)


def test_gstar_parameter_validation():
    with pytest.raises(ParameterError, match="even number of jobs"):
        GStarParams(n=9, s=2, eps=(1, 4))
    with pytest.raises(ParameterError, match="even number of heavy"):
        GStarParams(n=8, s=3, eps=(1, 4))
    with pytest.raises(ParameterError):
        GStarParams(n=8, s=0, eps=(1, 4))
    with pytest.raises(ParameterError, match="smaller than n"):
        GStarParams(n=4, s=4, eps=(1, 8))
    with pytest.raises(ParameterError, match="strictly below"):
        GStarParams(n=8, s=2, eps=(1, 3))
    with pytest.raises(ParameterError):
        GStarParams(n=8, s=2, eps=(0, 4))
    with pytest.raises(ParameterError):
        GStarParams(n=8, s=2, eps=(1, 4), scale=0)


def test_gstar_rejects_degenerate_weights():
    # with too few light jobs per heavy one the "heavy" weight drops below
    # the "light" weight and the family loses its structure
    with pytest.raises(ParameterError, match="increase n or decrease s"):
        gen_g_star(GStarParams(n=6, s=4, eps=(1, 8)))


def test_uniform_generator_shape_and_determinism():
    a = gen_uniform(10, 100, seed=42)
    b = gen_uniform(10, 100, seed=42)
    c = gen_uniform(10, 100, seed=43)
    assert a == b
    assert a != c
    assert a.n == 10
    assert all(1 <= t <= 100 for t in a.p)
    assert all(x >= y for x, y in zip(a.p, a.p[1:]))
    assert a.meta.family == "uniform"


def test_uniform_generator_validation():
    with pytest.raises(ParameterError):
        gen_uniform(1, 100, seed=0)
    with pytest.raises(ParameterError):
        gen_uniform(5, 0, seed=0)
    with pytest.raises(ParameterError, match="seed must be non-negative"):
        gen_uniform(5, 100, seed=-1)
    with pytest.raises(ParameterError, match="max_p must be below 2\\^63"):
        gen_uniform(4, 1 << 63, seed=0)
    assert max(gen_uniform(4, (1 << 63) - 1, seed=0).p) < 1 << 63


def test_write_then_read_round_trip_gstar(tmp_path):
    # the reader checks a gstar line's parameters: every written file passes
    settings = [(8, 2, (1, 4), 2), (16, 2, (2, 8), 1)] + list(IDENTITY_SETTINGS)
    for n, s, eps, scale in settings:
        inst = gen_g_star(GStarParams(n=n, s=s, eps=eps, scale=scale))
        path = tmp_path / f"g{n}_{s}.txt"
        write_instance(inst, str(path))
        back = read_instance(str(path))
        assert back == inst
    # the form write_instance gives a gstar tag without parameters
    bare = tmp_path / "bare.txt"
    bare.write_text("partition v1\nn=4\nmeta=gstar\n5\n5\n5\n5\n", encoding="utf-8")
    assert read_instance(str(bare)).meta.family == "gstar"


def test_written_gstar_file_bytes(tmp_path):
    inst = gen_g_star(GStarParams(n=8, s=2, eps=(1, 4)))
    path = tmp_path / "g.txt"
    write_instance(inst, str(path))
    expected = (
        "partition v1\nn=8\nmeta=gstar;s=2;eps=1/4;scale=1\n"
        "39\n39\n11\n11\n11\n11\n11\n11\n"
    )
    assert path.read_bytes().decode("utf-8") == expected


def test_round_trip_uniform_and_custom(tmp_path):
    uni = gen_uniform(6, 50, seed=1)
    path = tmp_path / "u.txt"
    write_instance(uni, str(path))
    assert read_instance(str(path)) == uni

    custom = Instance(p=(9, 4, 4, 1))
    path2 = tmp_path / "c.txt"
    write_instance(custom, str(path2))
    text = path2.read_text(encoding="utf-8")
    assert "meta" not in text
    assert read_instance(str(path2)) == custom


def test_read_resorts_and_flags_unsorted_input(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("partition v1\nn=3\n2\n5\n3\n", encoding="utf-8")
    inst = read_instance(str(path))
    assert inst.p == (5, 3, 2)
    assert inst.meta.resorted is True


def test_read_errors_carry_line_numbers(tmp_path):
    cases = [
        ("wrong header\nn=1\n5\n", "line 1"),
        ("partition v1\nnope\n5\n", "line 2"),
        ("partition v1\nn=2\n5\nx\n", "line 4"),
        ("partition v1\nn=2\n5\n", "line 4"),
        ("partition v1\nn=2\n5\n0\n", "line 4"),
        ("partition v1\nn=2\nmeta=gstar;s=x\n5\n4\n", "line 3"),
        # only ASCII decimal digits: no underscores, signs, spaces or other
        # scripts' digits, all of which int() takes
        ("partition v1\nn=2\n1_000\n5\n", "line 3: malformed processing time"),
        ("partition v1\nn=2\n6\n 5 \n", "line 4: malformed processing time"),
        ("partition v1\nn=2\n+6\n5\n", "line 3: malformed processing time"),
        ("partition v1\nn=2\n6\n\u0665\n", "line 4: malformed processing time"),
        ("partition v1\nn= 2\n5\n4\n", "line 2: malformed job count"),
        ("partition v1\nn=2\nmeta=gstar;s=+2\n5\n4\n", "line 3: malformed meta value"),
        ("partition v1\nn=2\nmeta=gstar;scale=1_0\n5\n4\n", "line 3: malformed meta value"),
        ("partition v1\nn=2\nmeta=gstar;eps=1/-4\n5\n4\n", "line 3: malformed meta value"),
        ("partition v1\nn=2\nmeta=gstar;eps= 1/4\n5\n4\n", "line 3: malformed meta value"),
        # a gstar line's s and eps obey GStarParams' rules, with n and scale
        ("partition v1\nn=4\nmeta=gstar;s=0;eps=0/0;scale=0\n5\n5\n5\n5\n",
         "line 3: s must be an even number of heavy jobs, at least 2"),
        ("partition v1\nn=4\nmeta=gstar;s=2;eps=0/0;scale=1\n5\n5\n5\n5\n",
         "line 3: eps must be a positive rational q/r"),
        ("partition v1\nn=4\nmeta=gstar;s=2;eps=1/3;scale=1\n5\n5\n5\n5\n",
         "line 3: eps must lie strictly below 1/3"),
        ("partition v1\nn=4\nmeta=gstar;s=2;eps=1/4;scale=0\n5\n5\n5\n5\n",
         "line 3: scale must be a positive integer"),
        ("partition v1\nn=3\nmeta=gstar;s=2;eps=1/4\n5\n5\n5\n",
         "line 3: n must be an even number of jobs"),
        ("partition v1\nn=4\nmeta=gstar;s=4;eps=1/8\n5\n5\n5\n5\n",
         "line 3: s must be smaller than n"),
    ]
    for i, (content, fragment) in enumerate(cases):
        path = tmp_path / f"bad{i}.txt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(InstanceFormatError, match=fragment):
            read_instance(str(path))


@pytest.mark.parametrize("data, fragment", [
    (b"\xffpartition v1\nn=1\n5\n", "line 1"),
    (b"partition v1\nn=2\n5\n4\xff\n", "line 4"),
    (b"partition v1\r\nn=2\r\n5\r\n\xfe4\r\n", "line 4"),
    (b"partition v1\rn=2\r5\r4\r\xff", "line 5"),
], ids=["lf-line1", "lf-line4", "crlf", "cr"])
def test_read_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, fragment):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(InstanceFormatError, match=f"^{fragment}: not UTF-8 text$"):
        read_instance(str(path))


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_read_accepts_crlf_and_cr_line_ends(tmp_path, newline):
    lines = [b"partition v1", b"n=2", b"meta=uniform", b"4", b"5", b""]
    (tmp_path / "lf.txt").write_bytes(b"\n".join(lines))
    (tmp_path / "other.txt").write_bytes(newline.join(lines))
    inst = read_instance(str(tmp_path / "other.txt"))
    assert inst == read_instance(str(tmp_path / "lf.txt"))
    assert inst.p == (5, 4) and inst.meta.family == "uniform" and inst.meta.resorted


def test_read_rejects_extra_values(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text("partition v1\nn=2\n5\n4\n3\n", encoding="utf-8")
    with pytest.raises(InstanceFormatError):
        read_instance(str(path))


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_instance(str(tmp_path / "absent.txt"))
