"""The detection asymmetries measured in the paper and the detection excess
noise catalogued at each, shared by the test modules that check them."""

#: asymmetry levels [%], largest first
MEASURED_LEVELS = [33.77, 19.51, 14.29, 4.55, 2.25]
#: xi_det [SNU] at each level of MEASURED_LEVELS, in the same order
MEASURED_XI_DET = [0.1091, 0.0318, 0.0140, 0.0032, 0.0016]
