"""Detection and analysis of DNS reflection attacks in sampled flow traces.

The package is organized as a pipeline: parse and sanitize a packet trace,
build a consensus list of misused names, detect per-victim attack events,
then fingerprint, cluster, size, and cross-validate them. A deterministic
scenario generator provides ground truth for end-to-end evaluation.

Each stage is a module; import the modules, for example
`from dnsamp import pipeline`. Importing the package itself loads no
submodule, and only `synth` loads numpy.
"""

__version__ = "0.1.0"
