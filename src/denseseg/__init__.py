"""Dense segmentation toolkit: atrous filtering, pyramids, and CRF refinement."""
