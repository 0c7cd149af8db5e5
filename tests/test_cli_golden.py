"""Golden stdout of the command line tool on one fixed three-component model.

Every expected output below is literal, so any change in what a subcommand
prints, in any mode or format, shows up as a diff here.
"""

import pytest

from unisum.cli import main

MODEL = "--comp 0:1 --comp 1/2:1/4 --comp -1:3/4"   # support [-5/2, 3/2]
RANGE = "--from -3 --to 2 --step 5/4"              # both tails and the interior

GOLDEN = {
    "density {model} {range}": (
        "-3\t0 = 0.000000\n"
        "-1.75\t1/6 = 0.166667\n"
        "-0.5\t1/2 = 0.500000\n"
        "0.75\t1/6 = 0.166667\n"
        "2\t0 = 0.000000\n"
    ),
    "density {model} {range} --csv": (
        "x,value,exact\n"
        "-3,0,0\n"
        "-1.75,0.166667,1/6\n"
        "-0.5,0.5,1/2\n"
        "0.75,0.166667,1/6\n"
        "2,0,0\n"
    ),
    "density {model} {range} --float": (
        "-3\t0.0\tcond=1\n"
        "-1.75\t0.16666666666666666\tcond=1\n"
        "-0.5\t0.5\tcond=1\n"
        "0.75\t0.16666666666666666\tcond=1\n"
        "2\t0.0\tcond=1\n"
    ),
    "density {model} {range} --float --csv": (
        "x,value,condition\n"
        "-3,0.0,1.0\n"
        "-1.75,0.16666666666666666,1.0\n"
        "-0.5,0.5,1.0\n"
        "0.75,0.16666666666666666,1.0\n"
        "2,0.0,1.0\n"
    ),
    "density {model} {range} --float --no-condition": (
        "-3\t0.0\n"
        "-1.75\t0.16666666666666666\n"
        "-0.5\t0.5\n"
        "0.75\t0.16666666666666666\n"
        "2\t0.0\n"
    ),
    "density {model} {range} --float --no-condition --csv": (
        "x,value\n"
        "-3,0.0\n"
        "-1.75,0.16666666666666666\n"
        "-0.5,0.5\n"
        "0.75,0.16666666666666666\n"
        "2,0.0\n"
    ),
    "cdf {model} {range}": (
        "-3\t0 = 0.000000\n"
        "-1.75\t13/288 = 0.045139\n"
        "-0.5\t1/2 = 0.500000\n"
        "0.75\t275/288 = 0.954861\n"
        "2\t1 = 1.000000\n"
    ),
    "cdf {model} {range} --csv": (
        "x,value,exact\n"
        "-3,0,0\n"
        "-1.75,0.045139,13/288\n"
        "-0.5,0.5,1/2\n"
        "0.75,0.954861,275/288\n"
        "2,1,1\n"
    ),
    "cdf {model} {range} --float": (
        "-3\t0.0\tcond=1\n"
        "-1.75\t0.04513888888888889\tcond=1\n"
        "-0.5\t0.5\tcond=1\n"
        "0.75\t0.9548611111111112\tcond=1\n"
        "2\t1.0\tcond=1\n"
    ),
    "cdf {model} {range} --float --csv": (
        "x,value,condition\n"
        "-3,0.0,1.0\n"
        "-1.75,0.04513888888888889,1.0\n"
        "-0.5,0.5,1.0\n"
        "0.75,0.9548611111111112,1.0\n"
        "2,1.0,1.0\n"
    ),
    "cdf {model} {range} --float --no-condition": (
        "-3\t0.0\n"
        "-1.75\t0.04513888888888889\n"
        "-0.5\t0.5\n"
        "0.75\t0.9548611111111112\n"
        "2\t1.0\n"
    ),
    "cdf {model} {range} --float --no-condition --csv": (
        "x,value\n"
        "-3,0.0\n"
        "-1.75,0.04513888888888889\n"
        "-0.5,0.5\n"
        "0.75,0.9548611111111112\n"
        "2,1.0\n"
    ),
    "pmf --m 1 --m 2": (
        "-3\t1/15 = 0.066667\n"
        "-2\t2/15 = 0.133333\n"
        "-1\t1/5 = 0.200000\n"
        "0\t1/5 = 0.200000\n"
        "1\t1/5 = 0.200000\n"
        "2\t2/15 = 0.133333\n"
        "3\t1/15 = 0.066667\n"
    ),
    "pmf --m 1 --m 2 --csv": (
        "p,probability,exact\n"
        "-3,0.066667,1/15\n"
        "-2,0.133333,2/15\n"
        "-1,0.2,1/5\n"
        "0,0.2,1/5\n"
        "1,0.2,1/5\n"
        "2,0.133333,2/15\n"
        "3,0.066667,1/15\n"
    ),
    "table {model}": (
        "# cumulative distribution of a sum of 3 uniform component(s)\n"
        "# components: (c=0, a=1), (c=0.5, a=0.25), (c=-1, a=0.75)\n"
        "# mode: exact\n"
        "   x  F\n"
        "-2.5  0.00000\n"
        "-2.1  0.00711\n"
        "-1.7  0.05389\n"
        "-1.3  0.15389\n"
        "-0.9  0.30711\n"
        "-0.5  0.50000\n"
        "-0.1  0.69289\n"
        " 0.3  0.84611\n"
        " 0.7  0.94611\n"
        " 1.1  0.99289\n"
        " 1.5  1.00000\n"
    ),
    "table {model} --csv": (
        "# cumulative distribution of a sum of 3 uniform component(s)\n"
        "# components: (c=0, a=1), (c=0.5, a=0.25), (c=-1, a=0.75)\n"
        "# mode: exact\n"
        "x,F\n"
        "-2.5,0.00000\n"
        "-2.1,0.00711\n"
        "-1.7,0.05389\n"
        "-1.3,0.15389\n"
        "-0.9,0.30711\n"
        "-0.5,0.50000\n"
        "-0.1,0.69289\n"
        "0.3,0.84611\n"
        "0.7,0.94611\n"
        "1.1,0.99289\n"
        "1.5,1.00000\n"
    ),
    "table {model} --float": (
        "# cumulative distribution of a sum of 3 uniform component(s)\n"
        "# components: (c=0, a=1), (c=0.5, a=0.25), (c=-1, a=0.75)\n"
        "# mode: float\n"
        "   x  F\n"
        "-2.5  0.00000\n"
        "-2.1  0.00711\n"
        "-1.7  0.05389\n"
        "-1.3  0.15389\n"
        "-0.9  0.30711\n"
        "-0.5  0.50000\n"
        "-0.1  0.69289\n"
        " 0.3  0.84611\n"
        " 0.7  0.94611\n"
        " 1.1  0.99289\n"
        " 1.5  1.00000\n"
    ),
    "table {model} --float --csv": (
        "# cumulative distribution of a sum of 3 uniform component(s)\n"
        "# components: (c=0, a=1), (c=0.5, a=0.25), (c=-1, a=0.75)\n"
        "# mode: float\n"
        "x,F\n"
        "-2.5,0.00000\n"
        "-2.1,0.00711\n"
        "-1.7,0.05389\n"
        "-1.3,0.15389\n"
        "-0.9,0.30711\n"
        "-0.5,0.50000\n"
        "-0.1,0.69289\n"
        "0.3,0.84611\n"
        "0.7,0.94611\n"
        "1.1,0.99289\n"
        "1.5,1.00000\n"
    ),
    "coeffs --n-max 3 --k-max 2": (
        "b(n=1, k=0) = 1\n"
        "b(n=1, k=1) = 1/6\n"
        "b(n=1, k=2) = 7/360\n"
        "b(n=2, k=0) = 1\n"
        "b(n=2, k=1) = 1/3\n"
        "b(n=2, k=2) = 1/15\n"
        "b(n=3, k=0) = 1\n"
        "b(n=3, k=1) = 1/2\n"
        "b(n=3, k=2) = 17/120\n"
    ),
    "coeffs --n-max 3 --k-max 2 --csv": (
        "n,k,value,exact\n"
        "1,0,1,1\n"
        "1,1,0.166667,1/6\n"
        "1,2,0.019444,7/360\n"
        "2,0,1,1\n"
        "2,1,0.333333,1/3\n"
        "2,2,0.066667,1/15\n"
        "3,0,1,1\n"
        "3,1,0.5,1/2\n"
        "3,2,0.141667,17/120\n"
    ),
    "quantile {model} --q 1/3": (
        "-0.8422414369106264\n"
    ),
    "sample {model} --count 4 --seed 7": (
        "-1.5281499805173533\n"
        "-1.3649886682011245\n"
        "-1.0643484561710106\n"
        "-1.9653400400544068\n"
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_stdout(command, capsys):
    argv = command.format(model=MODEL, range=RANGE).split()
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN[command]
