import hashlib
import re
import shlex
from pathlib import Path

from np_atlas import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# exit code and sha256 of stdout for every `np-atlas ...` line of README's sh blocks
PINNED = {
    'np-atlas cohomology --shape "fl(1;2)" --weight "[3],[0]"':
        (0, "b1b2bbe8c67063a6a9366c702aa67a277b6cc460da83c8542e5e61424bf474dd"),
    'np-atlas cohomology --shape "fl(1;2)" --weight "[0],[3]"':
        (0, "04036257f63dce1c8feb7cdb17a1934cc9cfcc7534a8005f8ead56be448e75c9"),
    'np-atlas np --spec "sfl(6,5,3;12)" --L "3,2,1" --p 1':
        (0, "1a4391e3cffdb0d49526b0a0fe24639235d71303d5a4d1a5bec5c2ca19e7ec88"),
    'np-atlas np --spec "ofl(2;7)" --L "1" --p 1':
        (1, "dd3f5171f580349d436798863f9b883a9d2f77115c3189b6999367fb0ca41955"),
    'np-atlas np --spec g2x --L 2 --p 2':
        (0, "c686e694f4b0ae791c113687b9794282b0b0c4f9282e7356799eb158eced7712"),
    'np-atlas np --spec g2x --L 1 --p 2':
        (1, "f333220204be2d0ddab163cc329d09ebc2bce886d1609910843fdaa0d1f5c279"),
    'np-atlas np-threshold --family C --ranks 1,1,1,1,1,1 --p 1':
        (0, "dadf1e781e8f37cfc684266716da11cebfce981891e4274e922dae47f809adcb"),
    'np-atlas verify plethysm-dims':
        (0, "3be0daa0334dea370f2ea06c860ab54fcabffc48c7a557113d9babfd8fa2cc74"),
    'np-atlas verify serre-duality --cases 500 --seed 7':
        (0, "de4ce11538b4c5e10a65e658df377e0c06e951c8ae8505a912d751ceb7aae8a2"),
    'np-atlas verify g2-lemma':
        (0, "8ffc3695c664f9f83e9a8376f7c62aa41cb18b4c1d88d55f6ff7ae29eb2eb2e7"),
    'np-atlas verify threshold-oracle':
        (0, "6471e928b1ddc71060f9dd3651281cae3dafa16c82edea269f1b61ea3c974fc0"),
}


def readme_commands() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("np-atlas ")]


def test_readme_cli_examples_pinned(capsys):
    seen = {}
    for line in readme_commands():
        code = cli.main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        seen[line] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert seen == PINNED
