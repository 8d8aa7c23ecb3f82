package autobahn

// FreeAddrs exposes freeAddrs to the external test package.
var FreeAddrs = freeAddrs
