"""LiDAR point cloud codec built on cylindrical (or Cartesian) voxelization.

Pipeline: voxelize -> octree occupancy stream (geometry) -> hierarchical
attribute transform -> uniform quantization -> adaptive run-length /
Golomb-Rice coding -> one self-contained bitstream. A rate-distortion
harness (PSNR, bits per point, Bjontegaard deltas) and a CLI sit on top.
"""

from .bitstream import EncodeSummary, decode_cloud, encode_cloud
from .coeff_codec import (
    RlgrPayload,
    dequantize,
    quantize,
    rlgr_decode,
    rlgr_encode,
)
from .errors import (
    CorruptStreamError,
    CylpcError,
    InvalidConfigError,
    InvalidInputError,
    MalformedFileError,
    OutOfRangeError,
)
from .geometry import (
    CartesianPoint,
    CylindricalPoint,
    PointCloud,
    to_cartesian,
)
from .ingest import SweepSpec, load_kitti_bin, load_ply, synth_sweep, write_ply
from .metrics import (
    LOSSLESS,
    RatePoint,
    RdCurve,
    bd_metrics,
    psnr_attribute,
)
from .octree import deserialize, octree_from_leaf_codes, serialize
from .raht import (
    CoefficientStream,
    raht_forward_arrays,
    raht_inverse_arrays,
    raht_schedule,
)
from .voxelizer import (
    CoordinateSystem,
    ErrorModel,
    VoxelGridConfig,
    assign_codes,
    expected_error_cylindrical,
    knn_mean_distance,
    make_config,
    voxel_centers,
    voxelization_error_cylindrical,
    voxelize,
)

__version__ = "0.1.0"
