"""Frozen bytes of the random streams.

Every sweep CSV is a function of these draws, so a change to how
`SplitMix64` computes them (drawing in blocks, reordering the work) must
leave each output and the generator state after it bit-identical. The
digests were taken from the scalar-loop implementation that the module
docstring specifies, and those of requests past one NORMAL_BLOCK from the
one-block implementation that followed it; a change that moves any of them
changes the stream.
"""

import hashlib

import numpy as np
import pytest

from sparsecert import EnsembleConfig, generate_instance, rng
from sparsecert.rng import SplitMix64

SEEDS = (0x5EED, 2**64 - 1)  # the second wraps the state on the first step


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _bytes(kind: str, out) -> np.ndarray:
    return np.asarray(out, dtype="<i8" if kind == "subset" else "<f8")


def _state(gen: SplitMix64) -> np.ndarray:
    return np.array([gen._state], dtype="<u8")


def _draw(kind: str, args: tuple, seed: int) -> str:
    """Digest of one draw from a fresh stream and the state it leaves."""
    gen = SplitMix64(seed)
    return _digest(_bytes(kind, getattr(gen, kind)(*args)), _state(gen))


# (method, arguments): digests at SEEDS
DRAWS = {
    ("normals", (0,)): ('998a6a0f0c64c0f25c59d1fc7700a88dd3bbfa13476d7808e70aecd5ce0f1a67', '12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca'),
    ("normals", (1,)): ('4c4d19327d9914192796f7e486fa988cafa3ce079879e26bdd3727b5200cfae1', '50edaa1fbce69b221435c6769ef4080a07f38c8f1fd3da7c3e3653f588a5906b'),
    ("normals", (2,)): ('4cd90b8655d5fecbd33e7c290fcba92cb85dbc4f03dbcf0f8d8586278e829845', '6de2be013c0dead5ae3aa7b64b3b3dc5fda9e0f7b624c463bc4da1123b180a73'),
    ("normals", (7,)): ('2bed0f91854af5bc155a4c4e0379412794de789617cdeb454824a917351848db', '25d42f2ae76083c4ea19980186783780e4b789196eda6abe3b9b43a471e7d873'),
    ("normals", (4096,)): ('9b0168cfd530dd8412706b938bf3bd74bb4de0a44315dbaef1fe85d072012b2e', 'b8a8f858a8c046e51bb1da3dec50f370be50f4702bfc67391339cc6cdc8678af'),
    ("normals", (4097,)): ('72c2423ca1da5bd86e3ce95c0ccdb4edb5908ab201422939b81882d6cbc7781a', '4d6cde59de16ffefaacfb8c8b060704169b2c2b2f0f860c2ccfc5eba1cf612f7'),
    ("subset", (0, 0)): ('998a6a0f0c64c0f25c59d1fc7700a88dd3bbfa13476d7808e70aecd5ce0f1a67', '12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca'),
    ("subset", (1, 1)): ('1718e2463f95db25a5e03cfec6926ab3af6cfbf6e5f7eed5b59967a0de1979d2', '8b1cf00ad56e5b99eae66ead69fe24b46898f75d63da37f9b9931c550ee53a03'),
    ("subset", (16, 0)): ('998a6a0f0c64c0f25c59d1fc7700a88dd3bbfa13476d7808e70aecd5ce0f1a67', '12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca'),
    ("subset", (16, 4)): ('27daafb8f96e34099ad07d7b70ddebfecb58ec5d93d840985671843f50466cf6', '40302a50399ca16bc489bc4713e052e59247763769273bb65cf0bbc4e20b78d4'),
    ("subset", (16, 16)): ('931aeead5cf0603d039910889a59687b696c1d0285835c0b659f40281e911a3d', 'e0f26ac99a1d91e6335a7c664c7fcf0af90eae216e72da85c779ace393873bf0'),
    ("subset", (64, 8)): ('150e34cae5c0013addc6f00365b2e4343cf50d14c95a7254e88c5b0687f5705e', '4b16fc0cf0231128995500c4fd4be8e8f48248fcd154fd1ba54979c795c5ded3'),
    ("subset", (257, 257)): ('7ff2f07fc2d962e6e6895d2b8cf6359a01c59d2e4e11904a7c2bc276092d35df', '8b6f28baa60a41651b53c0a41f7a53df0007ff2efb7574b5974775bbf0170780'),
    ("signs", (0,)): ('998a6a0f0c64c0f25c59d1fc7700a88dd3bbfa13476d7808e70aecd5ce0f1a67', '12a3ae445661ce5dee78d0650d33362dec29c4f82af05e7e57fb595bbbacf0ca'),
    ("signs", (1,)): ('a4e209f3fda32172a500558f8b8acad12ef67669987b5018e25b205a1e704727', '78e39eb5c3c54e20e65e560849689aa2dd38c09350958fff24a1048e7fe1792c'),
    ("signs", (33,)): ('4956d8c1e7f3339238a59d7d9483800fc529cd09b7701515324a4ecd7bfc8751', 'dd838d1a9ef9f95c03888561832102cdb2456c9d9a34607b072bcb115af6c873'),
    # appended after the older cases so their parametrize ids stay put:
    # 1, 2 and 3 times 16384 pairs (4, 8 and 12 blocks of NORMAL_BLOCK =
    # 4096 pairs), one pair short and one pair over, with an even and an
    # odd count
    ("normals", (32766,)): ('301adc0e6a309ac086452c640195c728421a293d4a98165866017505d724ab54', '4f8ee6c397a20a441190593aa0dd464973b974db8c7f89e697203dc0001b04da'),
    ("normals", (32767,)): ('0aa6c216362e75e93feeb615cec6165b041b416ca10800280f645514b22990c5', '2f73d2c7cdefe6f1ca504d7c8c173e46d73cbf394b2f1a0a1b9c3b9837358658'),
    ("normals", (32769,)): ('6e9940207ea6ac7ff0aab43aaaf4e6662d0b3cc0ac2117463ef86465eaea370d', '743d5276dbe5b681dba99e25df618602aad39cc11b428ac97cbb482a18ec3ce7'),
    ("normals", (32770,)): ('f5a13b68609e47a496596a2c3f45cec18d2539f8a72911b162679c6b58adfbb0', '6e34e1f787493bcb32b9349d0ab1a107b5794f7ce28ebf9ba881b7d211206d2b'),
    ("normals", (65534,)): ('33e07b48c39a079b88f7d4925b663b64cc7ff25ac4ee375602a7cafe1d6c3072', 'f71a72a101f0beb1979159735cab56b43d33304f6416af5545f5d867f33b2548'),
    ("normals", (65535,)): ('635f09038a6d06864c095c68a33b3f2e2072c86b4779119fe3da4c7561ea9e2b', '1f0ff2441e4e487e2226ec413d56ffbc3636300eef9d3e7e086205da4c8c6904'),
    ("normals", (65537,)): ('3e7c83039e55e0967a97cb93172840fa6b5f85121d6a18baf13cdc9b61ff768c', '4d166c2fa07b68a1e0a8dd2e196fedae036f5b5ca18e7f80729820be2fd87233'),
    ("normals", (65538,)): ('a7a9e36239985c9426503aa4cae0aa3b2cbca19a880fd380760f5bb685689994', '6d5ea55b9a1b7b793a27d37661115743abf143b313fd36e8df811e2fd4624661'),
    ("normals", (98302,)): ('684983af3ce20bc3f1f66451858b5c35c1aa51c467e93727e8c24e923377ad46', '09dfcbae1ea8f74966b7f954e8bfb5459f0d67a6772f8a0cb1672d86cae68279'),
    ("normals", (98303,)): ('0ba2e5814d53ec834c29477f7ee861f1e98d613ae33dcabf8dea961c8fc64259', '97c1c330578815dfbcc171efdb6e84eb4014865e00a9885aab80ae79f26f9327'),
    ("normals", (98305,)): ('975e7ac921ceac0abd34a5f1082cd90e43fa5097464e2c5db9d546bfaa575287', '1121fbc4b25e747791ff40948d49ec06f787f06a615ddb9001b72fe7065b4e64'),
    ("normals", (98306,)): ('88d375485088a218738abcd238be27e12b2b40c4793031e8c8e3e7ecced959f9', '8637d19f5b505b956fa0210f16119fe524f08011eaa84a664ae2a8f4ec09b41c'),
}

# generate_instance's request sequence on one stream (seed 7919, n=97, p=64)
CHAINED = {
    ("normals", (97 * 64,)): 'e3f759689b24f877a345c4a80c76f5197dd84c7c13d595d09b136f7d54241b29',
    ("subset", (64, 8)): 'c1144b73d8bd738bbdbc5ab5c7f74444639767b0081eed9031cd28c6941e75b3',
    ("signs", (8,)): '886cb64756f7ce81ceb23af51f37e08e93f960ddd3d718d034fe5efc8806d674',
    ("normals", (97,)): '7e375ddd53160b6840853c160022ed5cfe12eefa0864ac21f1d7af9a0663ffe8',
    # then a 9-block request (32769 pairs) and a draw from the state it leaves
    ("normals", (65537,)): '4e8958b7b10662ee1e60bbde5a4a40be5cee16a336a6c0d8a7a6b3174bbe9295',
    ("signs", (3,)): '8755526ab8e470b789649a9e4298010e330df05dc2d71d6af975af276f7570f3',
}

# (p, alpha, rho multiplier, trial) at master seed 0: digest of X, y, beta, support
CELLS = {
    (16, 1.0, 2.0, 0): '958ee48e7135e93eb69aad055274b58d94dcd3bdd6a4c6eade238a57c72c9d7a',
    (16, 10.0, 12.0, 2): 'ddf183e1399a62214803d480bdae1bb7c051519a2ffbe85237e88d0f0213e808',
    (64, 3.0, 8.0, 1): 'b884f6fe6bf07eddda54dcbb249e4908ae3a6e6b5e4416ebdef9cd4309e29ebb',
    (256, 1.0, 2.0, 0): '6298672a006ef6630586e4dadde49d534a0bc728f289d728f3095a31a320856b',
    (256, 4.0, 3.0, 5): '97e3c9fe294fd6ade494a92480a218b380e2b1dcee51f73f5d0421f80c0b0cf3',
    (256, 4.0, 2.0, 0): '02ced6594ee0b38c2c964e997c1c11aa10b7b659acf439683cf81fb25f7b1c6e',  # a sweep-p256 cell, 11 blocks
}


@pytest.mark.parametrize("kind,args", list(DRAWS))
def test_draw_bytes_and_state_frozen(kind, args):
    assert tuple(_draw(kind, args, seed) for seed in SEEDS) == DRAWS[kind, args]


def test_chained_draws_frozen():
    gen = SplitMix64(7919)
    for (kind, args), expected in CHAINED.items():
        assert _digest(_bytes(kind, getattr(gen, kind)(*args)), _state(gen)) == expected


@pytest.mark.parametrize("cell", list(CELLS))
def test_generate_instance_bytes_frozen(cell):
    cfg = EnsembleConfig(p_list=[cell[0]], trials=1, master_seed=0)
    inst, beta, support = generate_instance(cfg, *cell)
    got = _digest(_bytes("normals", inst.X), _bytes("normals", inst.y), _bytes("normals", beta), _bytes("subset", support))
    assert got == CELLS[cell]


# normals that cross several default blocks, with an odd count
BLOCKED = 4 * rng.NORMAL_BLOCK + 3


@pytest.mark.parametrize("seed", SEEDS)
def test_normals_do_not_depend_on_the_block_size(seed, monkeypatch):
    draws = []
    for block in (1, 3, rng.NORMAL_BLOCK):
        monkeypatch.setattr(rng, "NORMAL_BLOCK", block)
        gen = SplitMix64(seed)
        draws.append(_digest(gen.normals(BLOCKED), _state(gen)))
    assert len(set(draws)) == 1


@pytest.mark.parametrize("m", [1, 178, BLOCKED])
def test_normals_are_the_documented_box_muller(m):
    # the module docstring's definition, on words drawn one at a time and
    # with numpy's log, cos and sin over them in stream order
    gen = SplitMix64(SEEDS[0])
    q = (m + 1) // 2
    u = np.array([((gen.next_u64() >> 11) + 1) * 2.0**-53 for _ in range(2 * q)])
    r = np.sqrt(-2.0 * np.log(u[:q]))
    theta = 2.0 * np.pi * u[q:]
    expected = np.column_stack([r * np.cos(theta), r * np.sin(theta)]).reshape(-1)[:m]
    got = SplitMix64(SEEDS[0])
    assert got.normals(m).tobytes() == expected.tobytes()
    assert got._state == gen._state
